//! Session-scoped cache of **validated** logical plans and their operator
//! decisions.
//!
//! Planner and operator-mapping LLM calls are the dominant per-query cost of
//! the CAESURA pipeline and — before this module — were re-paid in full even
//! when a structurally identical query had just been answered. The
//! [`PlanCache`] remembers, per session, every `(LogicalPlan,
//! Vec<OperatorDecision>)` pair whose execution **completed** — the plan that
//! worked, whatever it took to find it (insert-after-success) — keyed on:
//!
//! * a **schema fingerprint** of the catalog the planner saw — table names
//!   and column name/type pairs in catalog order
//!   ([`crate::template::schema_fingerprint`]) — so a hit is only possible
//!   against the exact schema the cached plan was validated on, and
//! * a **query template**: the query text with quoted string literals and
//!   standalone numbers slotted out ([`crate::template::normalize_query`]).
//!   Two queries that differ only in such literals share one template; on a
//!   hit the *probe's* literals are substituted back into the cached plan's
//!   step descriptions and operator arguments, so `movement = 'Baroque'`
//!   becomes `movement = 'Renaissance'` without a single model call.
//!
//! ## Why a hit cannot be worse than planning live
//!
//! A hit skips the planning *and* per-step mapping phases entirely — zero
//! planner LLM calls on repeat traffic. The safety argument has four legs:
//!
//! * **Only validated plans enter.** A plan is inserted only after a live run
//!   over it ended in success, with one decision per step: the one whose
//!   execution succeeded. Attempts that failed on the way — and whole plans a
//!   replan abandoned — are dropped, not stored. What is stored has still run
//!   end to end, in order, against this exact schema, from the state a replay
//!   starts in: every pass over a plan builds a fresh executor, and a step
//!   whose execution fails registers no table, so each successful decision
//!   saw exactly the tables its predecessors' successful decisions produced
//!   (`caesura_core`'s executor tests pin the second fact, its
//!   `tests/property_plans.rs` the replay). A plan repaired by execution
//!   feedback is the most expensive validated artefact a session owns —
//!   planning, mapping, the failed attempt and its error analysis — so it is
//!   the last thing worth re-deriving every round. A run that ended in an
//!   error validated nothing and stores nothing.
//!
//!   The entry is per query template and no finer. A step-level memo (step
//!   text + input schema → decision) would not be a cache of the model: the
//!   mapping prompt carries the *query*, so the decision is a function of it.
//!   The paper suite shows it — `R15` and `R24` share a byte-identical step
//!   over a byte-identical input schema, and the model's decision for it is
//!   `Did <teams.name> lose?` under one query and `How many goals did <name>
//!   kick?` (which fails and is repaired) under the other.
//! * **Literal substitution is structural.** Slots are cut from the query
//!   text itself, and a template only matches when the probe's literal
//!   *pattern* matches too (distinct literals stay distinct slots — see
//!   [`crate::template::normalize_query`]), so re-substitution is a pure
//!   find/replace of values the plan provably threaded through from the
//!   original query.
//! * **Threading is verified at insert time.** Before an entry is stored,
//!   every template literal must appear as a slot marker in the normalized
//!   plan + decisions, and no un-slotted occurrence of a literal value may
//!   remain (occurrences that equal a catalog identifier are exempt — a bare
//!   `status` in SQL is a column reference, not the string literal
//!   `'status'`, and must survive re-substitution untouched). A plan that
//!   paraphrases, reformats, or drops a literal is **rejected**
//!   ([`PlanInsertOutcome::Rejected`]) rather than cached, so a later probe
//!   with different literals can never silently replay the original values.
//! * **Failures fall back.** If a cached plan errors at execution, the entry
//!   is evicted ([`PlanCache::invalidate`]) and the session re-plans live —
//!   exactly the pre-cache path, one executor attempt later.
//!
//! ## Where entries live
//!
//! *Normalized* (literals slotted out) in a [`TieredCache`]
//! ([`caesura_store::tiered`] has the locking model and the memory → disk
//! probe path): at most [`PlanCacheConfig::capacity`] plans of sharded LRU
//! memory over an optional durable store keyed by the planner identity,
//! shared across the scheduler pool's in-flight queries via `Arc`. This module
//! adds what is particular to plans: the insert-time threading check, the
//! hit-time literal instantiation, and the rejection / invalidation counters.
//!
//! [`PlanCacheConfig`] defaults to [`PlanCacheConfig::DEFAULT_CAPACITY`]
//! entries; [`PlanCacheConfig::off`] means no cache at all — byte-for-byte
//! the always-plan-live behaviour. Sessions set it via
//! `CaesuraConfig::plan_cache`.

use crate::plan::{LogicalPlan, LogicalStep, OperatorDecision};
use crate::template::{
    fingerprint_identifiers, instantiate_decisions, instantiate_plan, literals_threaded,
    normalize_decisions, normalize_plan, QueryTemplate,
};
use caesura_modal::OperatorKind;
use caesura_store::{push_part, take_part, CacheStore, TieredCache};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which tier answered a [`PlanCache::lookup_tiered`] probe.
pub use caesura_store::Tier as PlanTier;

/// Configuration of the session-scoped validated-plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheConfig {
    /// Maximum number of cached plans across all shards. `0` disables the
    /// cache entirely (the byte-for-byte always-plan-live behaviour).
    pub capacity: usize,
}

impl PlanCacheConfig {
    /// Entry capacity of the default configuration. Entries are a few
    /// kilobytes of plan text, and literal-only variants share one, so it is
    /// sized for the distinct query *shapes* of a serving workload.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A configuration with an explicit entry capacity (`0` = off).
    pub fn new(capacity: usize) -> Self {
        PlanCacheConfig { capacity }
    }

    /// The disabled configuration: every query plans live.
    pub fn off() -> Self {
        PlanCacheConfig::new(0)
    }

    /// Build the cache this configuration describes (`None` when disabled).
    pub fn build(&self) -> Option<PlanCache> {
        (self.capacity > 0).then(|| PlanCache::with_capacity(self.capacity))
    }
}

impl Default for PlanCacheConfig {
    /// [`Self::DEFAULT_CAPACITY`] entries.
    fn default() -> Self {
        PlanCacheConfig::new(Self::DEFAULT_CAPACITY)
    }
}

/// Lifetime counters of one [`PlanCache`]: the [`caesura_store::TieredStats`]
/// of its two tiers plus the plan-specific rejections and invalidations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Probes answered from the cache (planning + mapping phases skipped).
    pub hits: usize,
    /// Probes that fell through to live planning.
    pub misses: usize,
    /// Validated plans stored (one per first execution that succeeded).
    pub insertions: usize,
    /// Entries evicted to respect the capacity bound.
    pub evictions: usize,
    /// Entries removed because their cached plan failed at execution.
    pub invalidations: usize,
    /// Insert attempts refused ([`PlanInsertOutcome::Rejected`]).
    pub rejections: usize,
    /// Memory-tier misses answered from the attached disk store.
    pub disk_hits: usize,
    /// Disk-tier probes that found nothing (true cold misses).
    pub disk_misses: usize,
    /// Validated plans written through to the attached disk store.
    pub disk_writes: usize,
    /// Disk-tier entries tombstoned because their plan failed at execution.
    pub disk_invalidations: usize,
    /// Disk writes and tombstones that failed; the query still succeeded.
    pub disk_errors: usize,
}

/// Outcome of one [`PlanCache::insert`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanInsertOutcome {
    /// The plan was stored.
    Inserted {
        /// Number of entries (0 or 1) evicted to make room.
        evictions: usize,
        /// Whether the entry also reached the disk tier (`false` without
        /// one, and when the write failed).
        written: bool,
    },
    /// An equivalent entry was already present (a concurrent query with the
    /// same shape stored it first); its LRU position was refreshed.
    AlreadyPresent,
    /// The plan did not verifiably thread every query literal through its
    /// text, so it was **not** stored: replaying it under different probe
    /// literals could silently answer for the original values. The query
    /// itself still succeeded — it just plans live next time too.
    Rejected,
}

/// A cached validated plan, instantiated with the probe's literals.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPlan {
    /// The logical plan, with the probe's literals substituted in.
    pub plan: LogicalPlan,
    /// The operator decisions, one per plan step, literals substituted.
    pub decisions: Vec<OperatorDecision>,
}

/// A bounded map from `(schema fingerprint, query template)` keys to
/// validated `(LogicalPlan, Vec<OperatorDecision>)` entries. See the
/// [module docs](self) for the correctness argument.
#[derive(Debug)]
pub struct PlanCache {
    /// Normalized entries (slot markers in place of literals), keyed by
    /// [`PlanCache::key`].
    tiers: TieredCache<String, Arc<CachedPlan>>,
    /// Namespaces every disk key; set by [`PlanCache::attach_disk`].
    identity: String,
    invalidations: AtomicUsize,
    rejections: AtomicUsize,
    disk_invalidations: AtomicUsize,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (clamped to ≥ 1; use
    /// [`PlanCacheConfig::build`] to express "off" as the absence of one).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            tiers: TieredCache::new(capacity, encode_entry, decode_entry),
            identity: String::new(),
            invalidations: AtomicUsize::new(0),
            rejections: AtomicUsize::new(0),
            disk_invalidations: AtomicUsize::new(0),
        }
    }

    /// Attach a durable tier below the in-memory shards. Memory misses then
    /// probe the store before planning live, validated inserts are written
    /// through, and invalidations tombstone the disk entry too.
    ///
    /// `identity` must change whenever the planning configuration changes —
    /// LLM client name plus every prompt knob that affects planner output —
    /// so plans validated under one configuration never replay under another.
    pub fn attach_disk(&mut self, store: Arc<CacheStore>, identity: impl Into<String>) {
        self.tiers.attach_disk(store);
        self.identity = identity.into();
    }

    /// Lifetime counters of both tiers plus the plan-specific ones.
    pub fn stats(&self) -> PlanCacheStats {
        let tiers = self.tiers.stats();
        PlanCacheStats {
            hits: tiers.hits,
            misses: tiers.misses,
            insertions: tiers.insertions,
            evictions: tiers.evictions,
            invalidations: self.invalidations.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
            disk_hits: tiers.disk_hits,
            disk_misses: tiers.disk_misses,
            disk_writes: tiers.disk_writes,
            disk_invalidations: self.disk_invalidations.load(Ordering::Relaxed),
            disk_errors: tiers.disk_errors,
        }
    }

    /// The fingerprint and the template text, around a control byte that
    /// appears in neither.
    fn key(fingerprint: &str, template: &QueryTemplate) -> String {
        format!("{fingerprint}\u{1f}{}", template.template)
    }

    /// Look up the validated plan for a `(fingerprint, template)` probe,
    /// refreshing its LRU position on a hit. The returned plan and decisions
    /// carry the **probe's** literals.
    pub fn lookup(&self, fingerprint: &str, template: &QueryTemplate) -> Option<CachedPlan> {
        self.lookup_tiered(fingerprint, template)
            .map(|(plan, _)| plan)
    }

    /// [`PlanCache::lookup`], additionally reporting which tier answered. A
    /// disk hit costs zero planner/mapping LLM calls too.
    pub fn lookup_tiered(
        &self,
        fingerprint: &str,
        template: &QueryTemplate,
    ) -> Option<(CachedPlan, PlanTier)> {
        let key = Self::key(fingerprint, template);
        let hit = self.tiers.get(&*key, &self.identity)?;
        let cached = CachedPlan {
            plan: instantiate_plan(&hit.value.plan, &template.literals),
            decisions: instantiate_decisions(&hit.value.decisions, &template.literals),
        };
        Some((cached, hit.tier))
    }

    /// Store a **validated** plan for a `(fingerprint, template)` key,
    /// slotting the template's literals out of the plan text so future
    /// probes can substitute their own — or reject it when
    /// `literals_threaded` cannot confirm every literal was slotted out.
    ///
    /// Callers must only insert a plan whose execution completed, with the
    /// one decision per step that executed — the insert-after-success
    /// contract the module docs argue correctness from.
    pub fn insert(
        &self,
        fingerprint: &str,
        template: &QueryTemplate,
        plan: &LogicalPlan,
        decisions: &[OperatorDecision],
    ) -> PlanInsertOutcome {
        let identifiers = fingerprint_identifiers(fingerprint);
        let entry = CachedPlan {
            plan: normalize_plan(plan, &template.literals, &identifiers),
            decisions: normalize_decisions(decisions, &template.literals, &identifiers),
        };
        if !literals_threaded(template, &entry.plan, &entry.decisions, &identifiers) {
            self.rejections.fetch_add(1, Ordering::Relaxed);
            return PlanInsertOutcome::Rejected;
        }
        let key = Self::key(fingerprint, template);
        match self.tiers.put(&*key, Arc::new(entry), &self.identity) {
            put if put.inserted == 0 => PlanInsertOutcome::AlreadyPresent,
            put => PlanInsertOutcome::Inserted {
                evictions: put.evictions,
                written: put.written == 1,
            },
        }
    }

    /// Remove the entry for a `(fingerprint, template)` key because its
    /// cached plan failed at execution — from memory and from disk, where it
    /// would outlive this process. Returns whether an entry was removed (a
    /// concurrent invalidation may have beaten this one).
    pub fn invalidate(&self, fingerprint: &str, template: &QueryTemplate) -> bool {
        let key = Self::key(fingerprint, template);
        let removed = self.tiers.remove(&*key, &self.identity);
        self.invalidations
            .fetch_add(usize::from(removed.memory), Ordering::Relaxed);
        self.disk_invalidations
            .fetch_add(usize::from(removed.disk), Ordering::Relaxed);
        removed.memory || removed.disk
    }
}

// --- entry codec -----------------------------------------------------------
//
// Entries are stored *normalized* (literals slotted out), exactly as the
// memory tier holds them, in a hand-rolled length-prefixed binary framing:
// no serde in this workspace, and the textual plan grammar is a prompt
// format, not a storage format (its parser is deliberately lenient). The
// codec version rides on the first byte; unknown versions decode to `None`,
// which the lookup path treats as a cold miss.

const ENTRY_CODEC_VERSION: u8 = 1;

/// A count beyond this is corruption, not a plan: decode refuses it.
const MAX_COUNT: usize = 4096;

fn push_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn push_str_list(out: &mut Vec<u8>, items: &[String]) {
    push_u32(out, items.len());
    for item in items {
        push_part(out, item.as_bytes());
    }
}

/// Serialize a normalized `(plan, decisions)` entry.
fn encode_entry(entry: &Arc<CachedPlan>) -> Vec<u8> {
    let mut out = vec![ENTRY_CODEC_VERSION];
    push_part(&mut out, entry.plan.thought.as_bytes());
    push_u32(&mut out, entry.plan.steps.len());
    for step in &entry.plan.steps {
        push_u32(&mut out, step.number);
        push_part(&mut out, step.description.as_bytes());
        push_str_list(&mut out, &step.inputs);
        push_part(&mut out, step.output.as_bytes());
        push_str_list(&mut out, &step.new_columns);
    }
    push_u32(&mut out, entry.decisions.len());
    for decision in &entry.decisions {
        push_u32(&mut out, decision.step_number);
        push_part(&mut out, decision.reasoning.as_bytes());
        push_part(&mut out, decision.operator.name().as_bytes());
        push_str_list(&mut out, &decision.arguments);
    }
    out
}

fn take_u32(bytes: &mut &[u8]) -> Option<usize> {
    let (head, rest) = bytes.split_first_chunk::<4>()?;
    *bytes = rest;
    Some(u32::from_le_bytes(*head) as usize)
}

fn take_count(bytes: &mut &[u8]) -> Option<usize> {
    take_u32(bytes).filter(|&count| count <= MAX_COUNT)
}

fn take_str(bytes: &mut &[u8]) -> Option<String> {
    Some(std::str::from_utf8(take_part(bytes)?).ok()?.to_string())
}

fn take_str_list(bytes: &mut &[u8]) -> Option<Vec<String>> {
    (0..take_count(bytes)?).map(|_| take_str(bytes)).collect()
}

/// Inverse of [`encode_entry`]. `None` on any malformed payload — including
/// a future codec version — which the caller treats as a cold miss.
fn decode_entry(bytes: &[u8]) -> Option<Arc<CachedPlan>> {
    let (&version, mut rest) = bytes.split_first()?;
    if version != ENTRY_CODEC_VERSION {
        return None;
    }
    let bytes = &mut rest;
    let thought = take_str(bytes)?;
    let mut steps = Vec::new();
    for _ in 0..take_count(bytes)? {
        steps.push(LogicalStep {
            number: take_u32(bytes)?,
            description: take_str(bytes)?,
            inputs: take_str_list(bytes)?,
            output: take_str(bytes)?,
            new_columns: take_str_list(bytes)?,
        });
    }
    let mut decisions = Vec::new();
    for _ in 0..take_count(bytes)? {
        decisions.push(OperatorDecision {
            step_number: take_u32(bytes)?,
            reasoning: take_str(bytes)?,
            operator: OperatorKind::from_name(&take_str(bytes)?)?,
            arguments: take_str_list(bytes)?,
        });
    }
    bytes.is_empty().then(|| {
        Arc::new(CachedPlan {
            plan: LogicalPlan { thought, steps },
            decisions,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{normalize_query, slot_marker};

    fn plan_with(description: &str) -> LogicalPlan {
        LogicalPlan {
            thought: "think".into(),
            steps: vec![LogicalStep::new(
                1,
                description,
                vec!["t".into()],
                "out",
                vec![],
            )],
        }
    }

    /// A memory-only insert that evicted nothing.
    const INSERTED: PlanInsertOutcome = PlanInsertOutcome::Inserted {
        evictions: 0,
        written: false,
    };

    fn decision_with(argument: &str) -> Vec<OperatorDecision> {
        vec![OperatorDecision {
            step_number: 1,
            reasoning: "because".into(),
            operator: OperatorKind::SqlSelection,
            arguments: vec![argument.into()],
        }]
    }

    #[test]
    fn hit_substitutes_probe_literals_into_plan_and_decisions() {
        let cache = PlanCache::with_capacity(8);
        let stored = normalize_query("Filter paintings of the 'Baroque' movement");
        cache.insert(
            "fp",
            &stored,
            &plan_with("Keep only rows where movement = 'Baroque'."),
            &decision_with("SELECT * FROM t WHERE movement = 'Baroque'"),
        );
        let probe = normalize_query("Filter paintings of the 'Renaissance' movement");
        let hit = cache.lookup("fp", &probe).expect("template must hit");
        assert_eq!(
            hit.plan.steps[0].description,
            "Keep only rows where movement = 'Renaissance'."
        );
        assert_eq!(
            hit.decisions[0].arguments[0],
            "SELECT * FROM t WHERE movement = 'Renaissance'"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 0, 1));
    }

    #[test]
    fn bare_literal_occurrences_substitute_only_at_token_boundaries() {
        let cache = PlanCache::with_capacity(8);
        let stored = normalize_query("Keep games where points above 30");
        cache.insert(
            "fp",
            &stored,
            &plan_with("Keep rows with points > 30."),
            &decision_with("SELECT * FROM t WHERE points > 30 AND id <> 301"),
        );
        let probe = normalize_query("Keep games where points above 55");
        let hit = cache.lookup("fp", &probe).unwrap();
        assert_eq!(hit.plan.steps[0].description, "Keep rows with points > 55.");
        // `30` inside `301` must survive.
        assert_eq!(
            hit.decisions[0].arguments[0],
            "SELECT * FROM t WHERE points > 55 AND id <> 301"
        );
    }

    #[test]
    fn identical_query_round_trips_bit_for_bit() {
        // Even when a literal coincides with a column name, probing with the
        // *same* literals restores the stored text exactly.
        let cache = PlanCache::with_capacity(8);
        let template = normalize_query("Show rows where status is 'status'");
        let plan = plan_with("Filter on status = 'status' via the status column.");
        let decisions = decision_with("SELECT status FROM t WHERE status = 'status'");
        cache.insert("t(status:str);", &template, &plan, &decisions);
        let hit = cache.lookup("t(status:str);", &template).unwrap();
        assert_eq!(hit.plan, plan);
        assert_eq!(hit.decisions, decisions);
    }

    #[test]
    fn literals_colliding_with_identifiers_keep_schema_references() {
        // A quoted literal that coincides with a column name must not
        // rewrite the bare column references when a later probe substitutes
        // a different value: only the quoted value occurrences change.
        let cache = PlanCache::with_capacity(8);
        let fingerprint = "t(status:str,id:int);";
        let stored = normalize_query("Show rows where status is 'status'");
        let outcome = cache.insert(
            fingerprint,
            &stored,
            &plan_with("Filter on status = 'status' via the status column."),
            &decision_with("SELECT status FROM t WHERE status = 'status'"),
        );
        assert_eq!(outcome, INSERTED);
        let probe = normalize_query("Show rows where status is 'archived'");
        let hit = cache.lookup(fingerprint, &probe).expect("same template");
        assert_eq!(
            hit.plan.steps[0].description,
            "Filter on status = 'archived' via the status column."
        );
        assert_eq!(
            hit.decisions[0].arguments[0],
            "SELECT status FROM t WHERE status = 'archived'"
        );
    }

    #[test]
    fn single_character_number_literals_substitute_on_hit() {
        // A bare single-digit number in the plan text must be slotted out —
        // otherwise a probe with a different digit would match the template
        // and silently execute the stored `> 5`.
        let cache = PlanCache::with_capacity(8);
        let stored = normalize_query("Keep games with points above 5");
        let outcome = cache.insert(
            "fp",
            &stored,
            &plan_with("Keep rows where points > 5."),
            &decision_with("SELECT * FROM t WHERE points > 5"),
        );
        assert_eq!(outcome, INSERTED);
        let probe = normalize_query("Keep games with points above 9");
        let hit = cache.lookup("fp", &probe).expect("same template");
        assert_eq!(hit.plan.steps[0].description, "Keep rows where points > 9.");
        assert_eq!(
            hit.decisions[0].arguments[0],
            "SELECT * FROM t WHERE points > 9"
        );
    }

    #[test]
    fn plans_that_do_not_thread_a_literal_are_rejected() {
        // The planner paraphrased the literal ('Baroque' → lowercase prose):
        // nothing was slotted out, so caching the plan would replay Baroque
        // answers for every other movement. The insert must refuse.
        let cache = PlanCache::with_capacity(8);
        let template = normalize_query("Filter paintings of the 'Baroque' movement");
        let outcome = cache.insert(
            "fp",
            &template,
            &plan_with("Keep only the baroque-era rows."),
            &decision_with("SELECT * FROM t WHERE era = 'baroque'"),
        );
        assert_eq!(outcome, PlanInsertOutcome::Rejected);
        assert!(cache.lookup("fp", &template).is_none());
        let stats = cache.stats();
        assert_eq!((stats.rejections, stats.insertions), (1, 0));
    }

    #[test]
    fn reformatted_number_literals_are_rejected_not_cached() {
        // `98.5` became `98.50` in the plan: substitution cannot find it, so
        // the entry must be refused rather than baked in.
        let cache = PlanCache::with_capacity(8);
        let template = normalize_query("Scores above 98.5");
        let outcome = cache.insert(
            "fp",
            &template,
            &plan_with("Keep scores above 98.50."),
            &decision_with("SELECT * FROM t WHERE score > 98.50"),
        );
        assert_eq!(outcome, PlanInsertOutcome::Rejected);
        assert_eq!(cache.stats().rejections, 1);
    }

    #[test]
    fn digit_literals_never_corrupt_other_slot_markers() {
        // Slot markers embed digit indices; a digit literal must not rewrite
        // another marker's index digits during the bare-substitution pass.
        let cache = PlanCache::with_capacity(8);
        let stored = normalize_query("values between 1 and 0");
        let outcome = cache.insert(
            "fp",
            &stored,
            &plan_with("Keep rows between 1 and 0."),
            &decision_with("SELECT * FROM t WHERE x BETWEEN 1 AND 0"),
        );
        assert_eq!(outcome, INSERTED);
        let probe = normalize_query("values between 4 and 9");
        let hit = cache.lookup("fp", &probe).unwrap();
        assert_eq!(hit.plan.steps[0].description, "Keep rows between 4 and 9.");
        assert_eq!(
            hit.decisions[0].arguments[0],
            "SELECT * FROM t WHERE x BETWEEN 4 AND 9"
        );
    }

    #[test]
    fn different_fingerprints_never_share_entries() {
        let cache = PlanCache::with_capacity(8);
        let template = normalize_query("count rows");
        cache.insert(
            "schema-a",
            &template,
            &plan_with("count"),
            &decision_with("SELECT COUNT(*) FROM t"),
        );
        assert!(cache.lookup("schema-b", &template).is_none());
        assert!(cache.lookup("schema-a", &template).is_some());
    }

    #[test]
    fn invalidate_removes_the_entry_and_counts() {
        let cache = PlanCache::with_capacity(8);
        let template = normalize_query("count rows");
        cache.insert("fp", &template, &plan_with("count"), &decision_with("x"));
        assert!(cache.invalidate("fp", &template));
        assert!(!cache.invalidate("fp", &template), "already gone");
        assert!(cache.lookup("fp", &template).is_none());
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn insert_outcomes_report_presence_and_eviction() {
        let cache = PlanCache::with_capacity(1);
        let (a, b) = (normalize_query("alpha"), normalize_query("beta"));
        let insert =
            |t: &QueryTemplate| cache.insert("fp", t, &plan_with("p"), &decision_with("d"));
        assert_eq!(insert(&a), INSERTED);
        assert_eq!(insert(&a), PlanInsertOutcome::AlreadyPresent);
        let evicting = PlanInsertOutcome::Inserted {
            evictions: 1,
            written: false,
        };
        assert_eq!(insert(&b), evicting);
        let stats = cache.stats();
        assert_eq!((stats.insertions, stats.evictions), (2, 1));
    }

    #[test]
    fn entry_codec_round_trips() {
        let plan = LogicalPlan {
            thought: format!("filter by {}", slot_marker(0)),
            steps: vec![
                LogicalStep::new(
                    1,
                    format!("Keep rows where movement = '{}'", slot_marker(0)),
                    vec!["paintings".into(), "artists".into()],
                    "filtered",
                    vec![],
                ),
                LogicalStep::new(
                    2,
                    "Plot it",
                    vec!["filtered".into()],
                    "plot",
                    vec!["x".into(), "y".into()],
                ),
            ],
        };
        let decisions = vec![
            OperatorDecision {
                step_number: 1,
                reasoning: "a filter".into(),
                operator: OperatorKind::SqlSelection,
                arguments: vec![
                    format!("movement = '{}'", slot_marker(0)),
                    "; tricky".into(),
                ],
            },
            OperatorDecision {
                step_number: 2,
                reasoning: String::new(),
                operator: OperatorKind::Plot,
                arguments: vec![],
            },
        ];
        let entry = Arc::new(CachedPlan { plan, decisions });
        let encoded = encode_entry(&entry);
        assert_eq!(decode_entry(&encoded), Some(entry));
        // Damaged payloads are misses, never panics.
        assert_eq!(decode_entry(&encoded[..encoded.len() - 1]), None);
        assert_eq!(decode_entry(&[]), None);
        let mut wrong_version = encoded.clone();
        wrong_version[0] = 99;
        assert_eq!(decode_entry(&wrong_version), None);
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, Arc<CacheStore>) {
        let mut dir = std::env::temp_dir();
        dir.push(format!("caesura-plan-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(CacheStore::open(&dir).expect("open store"));
        (dir, store)
    }

    #[test]
    fn disk_tier_survives_a_simulated_restart() {
        let (dir, store) = temp_store("restart");
        let template = normalize_query("Filter paintings of the 'Baroque' movement");
        {
            let mut cache = PlanCache::with_capacity(8);
            cache.attach_disk(Arc::clone(&store), "planner-a");
            let outcome = cache.insert(
                "fp",
                &template,
                &plan_with("Keep rows where movement = 'Baroque'"),
                &decision_with("movement = 'Baroque'"),
            );
            let through = PlanInsertOutcome::Inserted {
                evictions: 0,
                written: true,
            };
            assert_eq!(outcome, through);
            assert_eq!(cache.stats().disk_writes, 1);
        }
        // "Restart": a fresh cache over the same store.
        let mut cache = PlanCache::with_capacity(8);
        cache.attach_disk(Arc::clone(&store), "planner-a");
        let probe = normalize_query("Filter paintings of the 'Rococo' movement");
        let (hit, tier) = cache.lookup_tiered("fp", &probe).expect("disk hit");
        assert_eq!(tier, PlanTier::Disk);
        assert!(hit.plan.steps[0].description.contains("'Rococo'"));
        assert_eq!(hit.decisions[0].arguments[0], "movement = 'Rococo'");
        // The memory tier was warmed: the next probe hits memory.
        let (_, tier) = cache.lookup_tiered("fp", &probe).expect("memory hit");
        assert_eq!(tier, PlanTier::Memory);
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.hits, stats.misses), (1, 1, 1));
        drop((cache, store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_isolates_planner_identities_and_invalidates() {
        let (dir, store) = temp_store("identity");
        let template = normalize_query("Filter paintings of the 'Baroque' movement");
        let mut writer = PlanCache::with_capacity(8);
        writer.attach_disk(Arc::clone(&store), "planner-a");
        writer.insert(
            "fp",
            &template,
            &plan_with("Keep rows where movement = 'Baroque'"),
            &decision_with("movement = 'Baroque'"),
        );

        // A different planner identity sharing the same store never sees it.
        let mut other = PlanCache::with_capacity(8);
        other.attach_disk(Arc::clone(&store), "planner-b");
        assert_eq!(other.lookup_tiered("fp", &template), None);
        assert_eq!(other.stats().disk_misses, 1);

        // Nor does a different schema fingerprint under the same identity.
        let mut same = PlanCache::with_capacity(8);
        same.attach_disk(Arc::clone(&store), "planner-a");
        assert_eq!(same.lookup_tiered("other-fp", &template), None);

        // Invalidation tombstones the disk entry: a fresh cache cold-misses.
        assert!(writer.invalidate("fp", &template));
        assert_eq!(writer.stats().disk_invalidations, 1);
        let mut after = PlanCache::with_capacity(8);
        after.attach_disk(Arc::clone(&store), "planner-a");
        assert_eq!(after.lookup_tiered("fp", &template), None);
        drop((writer, other, same, after, store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The session records a plan disk write only when the insert outcome
    /// says one happened: a refused write is an error counted on the cache,
    /// not a write, and the plan still serves from memory.
    #[test]
    fn a_failed_write_through_is_reported_not_written() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("caesura-plan-disk-errors-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Every append rolls to a new segment file, which needs the directory.
        let options = caesura_store::StoreOptions {
            segment_bytes: 1,
            ..Default::default()
        };
        let store = CacheStore::open_with(&dir, options).expect("open store");
        let mut cache = PlanCache::with_capacity(8);
        cache.attach_disk(Arc::new(store), "planner-a");
        std::fs::remove_dir_all(&dir).expect("remove the store directory");

        let template = normalize_query("count rows");
        let outcome = cache.insert("fp", &template, &plan_with("count"), &decision_with("x"));
        assert_eq!(outcome, INSERTED, "inserted, but not written");
        let stats = cache.stats();
        assert_eq!((stats.disk_writes, stats.disk_errors), (0, 1));
        let (_, tier) = cache.lookup_tiered("fp", &template).expect("memory hit");
        assert_eq!(tier, PlanTier::Memory);
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
            .collect()
    }

    /// The exact bytes PR 10 wrote for this entry. A store directory outlives
    /// any one build: if this test fails, bump `ENTRY_CODEC_VERSION` (value
    /// change) or the planner identity (key change) on purpose instead of
    /// editing the literals.
    #[test]
    fn golden_disk_bytes_of_a_plan_entry() {
        const KEY: &str = "09000000706c616e6e65722d613600000074286d6f76656d656e743a737472293b1f\
            4b656570207468652027efa3bf30efa3bf2720726f77732061626f766520efa3bf31efa3bf";
        const VALUE: &str = "01050000007468696e6b0100000001000000350000004b65657020726f777320\
            7768657265206d6f76656d656e74203d2027efa3bf30efa3bf2720616e64206964203e20efa3bf31\
            efa3bf010000000100000074030000006f757400000000010000000100000007000000626563617573\
            650d00000053514c2053656c656374696f6e01000000250000006d6f76656d656e74203d2027efa3bf\
            30efa3bf2720414e44206964203e20efa3bf31efa3bf";
        let (dir, store) = temp_store("golden");
        let mut cache = PlanCache::with_capacity(8);
        cache.attach_disk(Arc::clone(&store), "planner-a");
        cache.insert(
            "t(movement:str);",
            &normalize_query("Keep the 'Baroque' rows above 3"),
            &plan_with("Keep rows where movement = 'Baroque' and id > 3"),
            &decision_with("movement = 'Baroque' AND id > 3"),
        );
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&unhex(KEY)), Some(unhex(VALUE)));
        drop((cache, store));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
