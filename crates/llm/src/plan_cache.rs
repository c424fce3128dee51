//! Session-scoped cache of **validated** logical plans and their operator
//! decisions.
//!
//! Planner and operator-mapping LLM calls are the dominant per-query cost of
//! the CAESURA pipeline and — before this module — were re-paid in full even
//! when the same query had just been answered. The [`PlanCache`] remembers,
//! per session, every `(LogicalPlan, Vec<OperatorDecision>)` pair whose
//! execution **completed** — the plan that worked, whatever it took to find
//! it (insert-after-success) — keyed on:
//!
//! * a **schema fingerprint** of the catalog the planner saw — table names
//!   and column name/type pairs in catalog order ([`schema_fingerprint`]) —
//!   so a hit is only possible against the exact schema the cached plan was
//!   validated on, and
//! * the **query text**, byte for byte. A hit hands back the plan and the
//!   decisions exactly as they ran; a query that differs in any byte, a
//!   literal included, misses and plans live.
//!
//! ## Why a hit cannot be worse than planning live
//!
//! A hit skips the planning *and* per-step mapping phases entirely — zero
//! planner LLM calls on repeat traffic. The safety argument has two legs:
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
//!   The entry is per query and no finer. A step-level memo (step text +
//!   input schema → decision) would not be a cache of the model: the mapping
//!   prompt carries the *query*, so the decision is a function of it. The
//!   paper suite shows it — `R15` and `R24` share a byte-identical step over
//!   a byte-identical input schema, and the model's decision for it is
//!   `Did <teams.name> lose?` under one query and `How many goals did <name>
//!   kick?` (which fails and is repaired) under the other.
//! * **Failures fall back.** If a cached plan errors at execution, the entry
//!   is evicted ([`PlanCache::invalidate`]) and the session re-plans live —
//!   exactly the pre-cache path, one executor attempt later.
//!
//! ## Where entries live
//!
//! In a [`TieredCache`] ([`caesura_store::tiered`] has the locking model and
//! the memory → disk probe path): at most [`PlanCacheConfig::capacity`] plans
//! of sharded LRU memory over an optional durable store keyed by the planner
//! identity, shared across the scheduler pool's in-flight queries via `Arc`.
//! This module adds what is particular to plans: the key and the entry codec.
//! Its lifetime counters are the tiered cache's own [`TieredStats`], whose
//! `invalidations` and `disk_invalidations` count what
//! [`PlanCache::invalidate`] removed. A query's own probe is counted on its
//! trace (`caesura_core::PlanCacheCalls`), where a hit of either tier is a
//! hit.
//!
//! [`PlanCacheConfig`] defaults to [`PlanCacheConfig::DEFAULT_CAPACITY`]
//! entries; [`PlanCacheConfig::off`] means no cache at all — byte-for-byte
//! the always-plan-live behaviour. Sessions set it via
//! `CaesuraConfig::plan_cache`.

use crate::plan::{LogicalPlan, LogicalStep, OperatorDecision};
use caesura_engine::Catalog;
use caesura_modal::OperatorKind;
use caesura_store::{push_part, take_part, CacheStore, Tier, TieredCache, TieredStats};
use std::sync::Arc;

/// Configuration of the session-scoped validated-plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheConfig {
    /// Maximum number of cached plans across all shards. `0` disables the
    /// cache entirely (the byte-for-byte always-plan-live behaviour).
    pub capacity: usize,
}

impl PlanCacheConfig {
    /// Entry capacity of the default configuration. Entries are a few
    /// kilobytes of plan text, one per distinct query of a serving workload.
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
    /// An equivalent entry was already present (a concurrent run of the
    /// same query stored it first); its LRU position was refreshed.
    AlreadyPresent,
}

/// A cached validated plan, exactly as it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPlan {
    /// The logical plan.
    pub plan: LogicalPlan,
    /// The operator decisions, one per plan step.
    pub decisions: Vec<OperatorDecision>,
}

/// A bounded map from `(schema fingerprint, query text)` keys to validated
/// `(LogicalPlan, Vec<OperatorDecision>)` entries. See the
/// [module docs](self) for the correctness argument.
#[derive(Debug)]
pub struct PlanCache {
    /// Entries keyed by [`PlanCache::key`].
    tiers: TieredCache<String, Arc<CachedPlan>>,
    /// Namespaces every disk key; set by [`PlanCache::attach_disk`].
    identity: String,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (clamped to ≥ 1; use
    /// [`PlanCacheConfig::build`] to express "off" as the absence of one).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            tiers: TieredCache::new(capacity, encode_entry, decode_entry),
            identity: String::new(),
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

    /// Lifetime counters of both tiers. `hits` counts memory hits only;
    /// `invalidations` and `disk_invalidations` count the entries
    /// [`PlanCache::invalidate`] removed from each tier.
    pub fn stats(&self) -> TieredStats {
        self.tiers.stats()
    }

    /// The fingerprint and the query text, around a control byte that
    /// appears in neither.
    fn key(fingerprint: &str, query: &str) -> String {
        format!("{fingerprint}\u{1f}{query}")
    }

    /// Look up the validated plan filed for a `(fingerprint, query)` probe,
    /// refreshing its LRU position on a hit.
    pub fn lookup(&self, fingerprint: &str, query: &str) -> Option<Arc<CachedPlan>> {
        self.lookup_tiered(fingerprint, query).map(|(plan, _)| plan)
    }

    /// [`PlanCache::lookup`], additionally reporting which tier answered. A
    /// disk hit costs zero planner/mapping LLM calls too.
    pub fn lookup_tiered(&self, fingerprint: &str, query: &str) -> Option<(Arc<CachedPlan>, Tier)> {
        let key = Self::key(fingerprint, query);
        let hit = self.tiers.get(&*key, &self.identity)?;
        Some((hit.value, hit.tier))
    }

    /// File a **validated** plan and its decisions under a
    /// `(fingerprint, query)` key, as given.
    ///
    /// Callers must only insert a plan whose execution completed, with the
    /// one decision per step that executed — the insert-after-success
    /// contract the module docs argue correctness from.
    pub fn insert(
        &self,
        fingerprint: &str,
        query: &str,
        plan: &LogicalPlan,
        decisions: &[OperatorDecision],
    ) -> PlanInsertOutcome {
        let entry = CachedPlan {
            plan: plan.clone(),
            decisions: decisions.to_vec(),
        };
        let key = Self::key(fingerprint, query);
        match self.tiers.put(&*key, Arc::new(entry), &self.identity) {
            put if put.inserted == 0 => PlanInsertOutcome::AlreadyPresent,
            put => PlanInsertOutcome::Inserted {
                evictions: put.evictions,
                written: put.written == 1,
            },
        }
    }

    /// Remove the entry for a `(fingerprint, query)` key because its cached
    /// plan failed at execution — from memory and from disk, where it would
    /// outlive this process. Returns whether an entry was removed (a
    /// concurrent invalidation may have beaten this one).
    pub fn invalidate(&self, fingerprint: &str, query: &str) -> bool {
        let key = Self::key(fingerprint, query);
        let removed = self.tiers.remove(&*key, &self.identity);
        removed.memory || removed.disk
    }
}

/// The query text a plan is filed under: the text itself. Lookups key on the
/// query verbatim; this is kept only for the benchmark harness's replay,
/// which times the key's construction under this name.
pub fn normalize_query(query: &str) -> String {
    query.to_string()
}

/// Fingerprint of the catalog a planner saw: every table with its column
/// name/type pairs, in catalog (name-sorted, deterministic) order. The full
/// string is the key component — no hashing, so distinct schemas can never
/// collide.
pub fn schema_fingerprint(catalog: &Catalog) -> String {
    let mut out = String::new();
    for table in catalog.tables() {
        out.push_str(table.name());
        out.push('(');
        for (i, field) in table.schema().fields().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&field.name);
            out.push(':');
            out.push_str(field.data_type.prompt_name());
        }
        out.push_str(");");
    }
    out
}

// --- entry codec -----------------------------------------------------------
//
// Entries are stored exactly as the memory tier holds them, in a
// hand-rolled length-prefixed binary framing: no serde in this workspace,
// and the textual plan grammar is a prompt format, not a storage format (its
// parser is deliberately lenient). The codec version rides on the first
// byte; unknown versions decode to `None`, which the lookup path treats as a
// cold miss.

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

/// Serialize a `(plan, decisions)` entry.
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
    fn identical_query_round_trips_bit_for_bit() {
        // A hit hands back the plan and decisions exactly as filed.
        let cache = PlanCache::with_capacity(8);
        let query = "Show rows where status is 'status'";
        let plan = plan_with("Filter on status = 'status' via the status column.");
        let decisions = decision_with("SELECT status FROM t WHERE status = 'status'");
        cache.insert("t(status:str);", query, &plan, &decisions);
        let hit = cache.lookup("t(status:str);", query).unwrap();
        assert_eq!(hit.plan, plan);
        assert_eq!(hit.decisions, decisions);
    }

    #[test]
    fn a_query_that_differs_only_in_a_literal_misses() {
        let cache = PlanCache::with_capacity(8);
        let filed = "Filter paintings of the 'Baroque' movement";
        cache.insert(
            "fp",
            filed,
            &plan_with("Keep only rows where movement = 'Baroque'."),
            &decision_with("SELECT * FROM t WHERE movement = 'Baroque'"),
        );
        let probe = "Filter paintings of the 'Rococo' movement";
        assert_eq!(cache.lookup("fp", probe), None);
        assert!(cache.lookup("fp", filed).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn different_fingerprints_never_share_entries() {
        let cache = PlanCache::with_capacity(8);
        let query = "count rows";
        cache.insert(
            "schema-a",
            query,
            &plan_with("count"),
            &decision_with("SELECT COUNT(*) FROM t"),
        );
        assert!(cache.lookup("schema-b", query).is_none());
        assert!(cache.lookup("schema-a", query).is_some());
    }

    #[test]
    fn invalidate_removes_the_entry_and_counts() {
        let cache = PlanCache::with_capacity(8);
        let query = "count rows";
        cache.insert("fp", query, &plan_with("count"), &decision_with("x"));
        assert!(cache.invalidate("fp", query));
        assert!(!cache.invalidate("fp", query), "already gone");
        assert!(cache.lookup("fp", query).is_none());
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.disk_invalidations), (1, 0));

        // Over a store, a present entry counts one removal per tier and an
        // absent one counts nothing.
        let mut dir = std::env::temp_dir();
        dir.push(format!("caesura-plan-invalidate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = PlanCache::with_capacity(8);
        cache.attach_disk(Arc::new(CacheStore::open(&dir).unwrap()), "planner-a");
        cache.insert("fp", query, &plan_with("count"), &decision_with("x"));
        assert!(cache.invalidate("fp", query));
        assert!(!cache.invalidate("fp", "never stored"));
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.disk_invalidations), (1, 1));
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn insert_outcomes_report_presence_and_eviction() {
        let cache = PlanCache::with_capacity(1);
        let insert = |query| cache.insert("fp", query, &plan_with("p"), &decision_with("d"));
        assert_eq!(insert("alpha"), INSERTED);
        assert_eq!(insert("alpha"), PlanInsertOutcome::AlreadyPresent);
        let evicting = PlanInsertOutcome::Inserted {
            evictions: 1,
            written: false,
        };
        assert_eq!(insert("beta"), evicting);
        let stats = cache.stats();
        assert_eq!((stats.insertions, stats.evictions), (2, 1));
    }

    #[test]
    fn entry_codec_round_trips() {
        let plan = LogicalPlan {
            thought: "filter by movement".into(),
            steps: vec![
                LogicalStep::new(
                    1,
                    "Keep rows where movement = 'Baroque'",
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
                arguments: vec!["movement = 'Baroque'".into(), "; tricky".into()],
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

    #[test]
    fn schema_fingerprint_is_exact_and_order_stable() {
        use caesura_engine::{DataType, Schema, TableBuilder};
        let mut catalog = Catalog::new();
        let zeta = Schema::from_pairs(&[("id", DataType::Int)]);
        catalog.register(TableBuilder::new("zeta", zeta).build());
        let alpha = Schema::from_pairs(&[("name", DataType::Str)]);
        catalog.register(TableBuilder::new("alpha", alpha).build());
        let fp = schema_fingerprint(&catalog);
        // Catalog iteration is name-sorted, so registration order does not
        // perturb the fingerprint.
        assert_eq!(fp, "alpha(name:str);zeta(id:int);");
        let beta = Schema::from_pairs(&[("id", DataType::Int)]);
        catalog.register(TableBuilder::new("beta", beta).build());
        assert_ne!(schema_fingerprint(&catalog), fp);
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
        let query = "Filter paintings of the 'Baroque' movement";
        {
            let mut cache = PlanCache::with_capacity(8);
            cache.attach_disk(Arc::clone(&store), "planner-a");
            let outcome = cache.insert(
                "fp",
                query,
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
        let (hit, tier) = cache.lookup_tiered("fp", query).expect("disk hit");
        assert_eq!(tier, Tier::Disk);
        assert!(hit.plan.steps[0].description.contains("'Baroque'"));
        assert_eq!(hit.decisions[0].arguments[0], "movement = 'Baroque'");
        // The memory tier was warmed: the next probe hits memory.
        let (_, tier) = cache.lookup_tiered("fp", query).expect("memory hit");
        assert_eq!(tier, Tier::Memory);
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.hits, stats.misses), (1, 1, 1));
        drop((cache, store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_isolates_planner_identities_and_invalidates() {
        let (dir, store) = temp_store("identity");
        let query = "Filter paintings of the 'Baroque' movement";
        let mut writer = PlanCache::with_capacity(8);
        writer.attach_disk(Arc::clone(&store), "planner-a");
        writer.insert(
            "fp",
            query,
            &plan_with("Keep rows where movement = 'Baroque'"),
            &decision_with("movement = 'Baroque'"),
        );

        // A different planner identity sharing the same store never sees it.
        let mut other = PlanCache::with_capacity(8);
        other.attach_disk(Arc::clone(&store), "planner-b");
        assert_eq!(other.lookup_tiered("fp", query), None);
        assert_eq!(other.stats().disk_misses, 1);

        // Nor does a different schema fingerprint under the same identity.
        let mut same = PlanCache::with_capacity(8);
        same.attach_disk(Arc::clone(&store), "planner-a");
        assert_eq!(same.lookup_tiered("other-fp", query), None);

        // Invalidation tombstones the disk entry: a fresh cache cold-misses.
        assert!(writer.invalidate("fp", query));
        assert_eq!(writer.stats().disk_invalidations, 1);
        let mut after = PlanCache::with_capacity(8);
        after.attach_disk(Arc::clone(&store), "planner-a");
        assert_eq!(after.lookup_tiered("fp", query), None);
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

        let query = "count rows";
        let outcome = cache.insert("fp", query, &plan_with("count"), &decision_with("x"));
        assert_eq!(outcome, INSERTED, "inserted, but not written");
        let stats = cache.stats();
        assert_eq!((stats.disk_writes, stats.disk_errors), (0, 1));
        let (_, tier) = cache.lookup_tiered("fp", query).expect("memory hit");
        assert_eq!(tier, Tier::Memory);
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
            .collect()
    }

    /// The exact bytes written for this entry, keyed on the query text
    /// verbatim. A store directory outlives any one build: if this test
    /// fails, bump `ENTRY_CODEC_VERSION` (value change) or the planner
    /// identity (key change) on purpose instead of editing the literals.
    #[test]
    fn golden_disk_bytes_of_a_plan_entry() {
        const KEY: &str = "09000000706c616e6e65722d613000000074286d6f76656d656e743a737472293b1f\
            4b6565702074686520274261726f7175652720726f77732061626f76652033";
        const VALUE: &str = "01050000007468696e6b01000000010000002f0000004b65657020726f777320\
            7768657265206d6f76656d656e74203d20274261726f7175652720616e64206964203e2033010000\
            000100000074030000006f757400000000010000000100000007000000626563617573650d000000\
            53514c2053656c656374696f6e010000001f0000006d6f76656d656e74203d20274261726f717565\
            2720414e44206964203e2033";
        let (dir, store) = temp_store("golden");
        let mut cache = PlanCache::with_capacity(8);
        cache.attach_disk(Arc::clone(&store), "planner-a");
        cache.insert(
            "t(movement:str);",
            "Keep the 'Baroque' rows above 3",
            &plan_with("Keep rows where movement = 'Baroque' and id > 3"),
            &decision_with("movement = 'Baroque' AND id > 3"),
        );
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&unhex(KEY)), Some(unhex(VALUE)));
        drop((cache, store));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
