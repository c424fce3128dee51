//! The CAESURA session: the public entry point that ties discovery, planning,
//! mapping, interleaved execution, and error recovery together (Figure 2 of
//! the paper).
//!
//! Since PR 5 the session is a **concurrent serving surface**: queries enter
//! through [`Caesura::submit`], which enqueues them on a session-owned
//! scheduler (see [`crate::serving`]) and returns a [`QueryHandle`]
//! immediately. N in-flight queries share one lake, one retriever index, and
//! one perception cache. The blocking [`Caesura::run`] / [`Caesura::query`]
//! methods are thin wrappers — `run(q)` is exactly `submit(q).wait()`, with
//! byte-identical outputs, trace events, and perception stats.

use crate::discovery::{lexical_relevant_columns, Retriever};
use crate::error::{CoreError, CoreResult};
use crate::executor::{Executor, StepOutcome};
use crate::output::QueryOutput;
use crate::sched::{AdmissionError, SchedPolicy, SubmitOptions, TenantServingStats};
use crate::serving::{JobState, QueryHandle, Scheduler, ServingStats};
use crate::trace::{ExecutionTrace, Phase, PlanCacheCalls, PlanSource};
use caesura_data::DataLake;
use caesura_engine::{parallel, Catalog, ExecConfig};
use caesura_llm::{
    normalize_query, schema_fingerprint, CancelStatus, CancelToken, Conversation, ErrorAnalysis,
    LlmClient, LlmError, LogicalPlan, LogicalStep, MappingRequest, OperatorDecision, PlanCache,
    PlanCacheConfig, PlanInsertOutcome, PromptBuilder, PromptConfig, QueryTemplate, RelevantColumn,
    StepObservation,
};
use caesura_modal::{BatchConfig, CacheConfig, PerceptionCache};
use caesura_store::{CacheStore, PersistConfig};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Configuration of a CAESURA session.
#[derive(Debug, Clone, PartialEq)]
pub struct CaesuraConfig {
    /// Include few-shot examples in the planning prompt (§3.1).
    pub few_shot: bool,
    /// Interleave mapping and execution (§3.1). When disabled, all operator
    /// decisions are made up front without observations — the ablation studied
    /// by the `ablation_interleaving` benchmark.
    pub interleaved: bool,
    /// Use the LLM discovery prompt to pick relevant columns. When disabled
    /// (the paper's evaluation setting) relevance is computed lexically,
    /// emulating perfect retrieval.
    pub llm_discovery: bool,
    /// How many tables dense retrieval keeps for the planner.
    pub retrieval_top_k: usize,
    /// Example values per relevant column shown in prompts.
    pub example_values: usize,
    /// Maximum execution attempts per step (1 = no error recovery).
    pub max_step_attempts: usize,
    /// Maximum full replans after an unrecoverable error.
    pub max_replans: usize,
    /// Execution configuration (worker threads) pinned for the perception
    /// dispatch of this session's queries. `None` uses the process default
    /// (`CAESURA_THREADS` / hardware parallelism);
    /// `Some(ExecConfig::sequential())` dispatches every batch on the query's
    /// own worker.
    pub exec: Option<ExecConfig>,
    /// Batching configuration (batch size) for the perception-operator model
    /// calls. `None` uses the environment default (`CAESURA_LLM_BATCH`);
    /// `Some(BatchConfig::new(1))` forces one dispatch per unique request
    /// (requests are deduplicated either way).
    pub llm_batch: Option<BatchConfig>,
    /// Session-scoped perception answer cache configuration. `None` uses the
    /// environment default (`CAESURA_PERCEPTION_CACHE`);
    /// `Some(CacheConfig::off())` disables caching, byte-for-byte preserving
    /// the uncached dispatch behaviour. When enabled, the session owns one
    /// cache shared by every query it runs, so a question re-asked by a
    /// later plan step or a back-to-back query costs zero model calls.
    pub perception_cache: Option<CacheConfig>,
    /// Session-scoped validated-plan cache configuration. `None` uses the
    /// environment default (`CAESURA_PLAN_CACHE`);
    /// `Some(PlanCacheConfig::off())` disables plan caching, byte-for-byte
    /// preserving the always-plan-live behaviour. When enabled, a query
    /// whose `(schema fingerprint, query template)` matches a previously
    /// validated plan skips the planning **and** mapping phases entirely —
    /// zero planner LLM calls — and a cached plan that fails at execution is
    /// evicted and re-planned live (see `caesura_llm::plan_cache`).
    pub plan_cache: Option<PlanCacheConfig>,
    /// Worker threads of the session's serving scheduler — how many
    /// submitted queries run concurrently. `None` uses the environment
    /// default (`CAESURA_SESSION_WORKERS`, falling back to hardware
    /// parallelism); `Some(1)` serializes all queries through one worker,
    /// preserving submission order end to end. Note the oversubscription
    /// math: each in-flight query may additionally fan perception batches
    /// out over `CAESURA_THREADS` workers.
    pub session_workers: Option<usize>,
    /// Bound of the serving scheduler's submission queue. `None` uses
    /// [`crate::serving::DEFAULT_QUEUE_DEPTH`] (64). A full queue applies
    /// backpressure: [`Caesura::submit`] blocks until a slot frees, while
    /// [`Caesura::try_submit`] / [`Caesura::submit_with`] fail fast with
    /// [`AdmissionError::QueueFull`].
    pub session_queue: Option<usize>,
    /// Number of priority tiers the scheduler maintains. `None` uses
    /// [`crate::sched::DEFAULT_PRIORITY_TIERS`] (2: interactive above
    /// batch); priorities beyond the count clamp to the lowest tier, so
    /// `Some(1)` collapses all priorities into one tier.
    pub priority_tiers: Option<usize>,
    /// Per-tenant admission quota: the maximum queued + in-flight queries a
    /// tenant may have before fail-fast submissions are rejected with
    /// [`AdmissionError::TenantOverQuota`] (blocking `submit` waits
    /// instead). `None` and `Some(0)` both mean unlimited.
    pub tenant_quota: Option<usize>,
    /// Deficit-round-robin weight per tenant name: a weight-w tenant takes w
    /// consecutive dequeues per round within its tier. Unlisted tenants
    /// (including the default tenant) weigh 1.
    pub tenant_weights: Vec<(String, u32)>,
    /// Whether table ingest dictionary-encodes low-cardinality string
    /// columns (see `caesura_engine::dict`). `None` uses the environment
    /// default (`CAESURA_DICT_ENCODE`, on unless disabled); `Some(..)`
    /// overrides the process-wide knob at session construction — it affects
    /// tables ingested from then on, not tables already in the lake.
    pub dict_encode: Option<bool>,
    /// Persistent on-disk cache tier below the in-memory perception and
    /// plan caches (see `caesura_store`). `None` disables the tier — the
    /// byte-for-byte pre-store behaviour. The default is the environment
    /// configuration: `CAESURA_CACHE_DIR` names the store directory (unset
    /// or empty means fully off), with both tiers on;
    /// [`PersistConfig::perception`] / [`PersistConfig::plans`] gate the
    /// tiers individually. A tier whose
    /// in-memory cache is disabled skips its disk tier too: the store is a
    /// second tier *under* the memory cache, never a replacement for it.
    pub persist: Option<PersistConfig>,
}

impl Default for CaesuraConfig {
    fn default() -> Self {
        CaesuraConfig {
            few_shot: true,
            interleaved: true,
            llm_discovery: false,
            retrieval_top_k: 4,
            example_values: 3,
            max_step_attempts: 3,
            max_replans: 1,
            exec: None,
            llm_batch: None,
            perception_cache: None,
            plan_cache: None,
            session_workers: None,
            session_queue: None,
            priority_tiers: None,
            tenant_quota: None,
            tenant_weights: Vec::new(),
            dict_encode: None,
            persist: persist_from_env(),
        }
    }
}

/// The environment-described persistence configuration, read once per
/// process (the same caching pattern as the other `CAESURA_*` knobs); use
/// [`PersistConfig::from_env`] directly to re-read the environment.
fn persist_from_env() -> Option<PersistConfig> {
    static DEFAULT: OnceLock<Option<PersistConfig>> = OnceLock::new();
    DEFAULT.get_or_init(PersistConfig::from_env).clone()
}

/// The identity string versioning a session's persisted plan entries: the
/// planner model, the version of the prompt format (`v2`: step-scoped
/// mapping prompts; bump it whenever a prompt's text changes, since the
/// prompts are part of what produced the stored decisions), plus every
/// prompt-shaping knob that changes which plans the model produces. Sessions
/// whose identities differ share a store directory without ever seeing each
/// other's entries (the schema fingerprint inside the key already isolates
/// different lake shapes).
fn plan_cache_identity(llm: &dyn LlmClient, config: &CaesuraConfig) -> String {
    format!(
        "{}:v2:few_shot={}:interleaved={}:examples={}",
        llm.name(),
        config.few_shot,
        config.interleaved,
        config.example_values
    )
}

/// The outcome of running one query end to end, including everything the
/// evaluation needs to grade the run.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// The query text.
    pub query: String,
    /// The logical plan produced by the planning phase (if planning succeeded).
    pub logical_plan: Option<LogicalPlan>,
    /// The operator decisions, in execution order.
    pub decisions: Vec<OperatorDecision>,
    /// The final output, or the error that stopped execution.
    pub output: Result<QueryOutput, CoreError>,
    /// The execution trace.
    pub trace: ExecutionTrace,
}

impl QueryRun {
    /// Whether the query executed to completion.
    pub fn succeeded(&self) -> bool {
        self.output.is_ok()
    }

    /// Whether the query was stopped by cooperative cancellation.
    pub fn cancelled(&self) -> bool {
        matches!(self.output, Err(CoreError::Cancelled))
    }

    /// Wall clock of the run (worker pickup until completion), from the
    /// trace's [`PhaseTimings`](crate::trace::PhaseTimings).
    pub fn latency(&self) -> std::time::Duration {
        self.trace.timings().total()
    }
}

/// What discovery found for one query, borrowed by every later phase.
#[derive(Clone, Copy)]
struct Discovered<'a> {
    query: &'a str,
    /// The base tables discovery kept for the query.
    catalog: &'a Catalog,
    relevant_columns: &'a [RelevantColumn],
}

/// Where the step loop takes each step's operator decision from, and what it
/// does when a step fails.
#[derive(Clone, Copy)]
struct StepDecisions<'a> {
    /// `None`: each step is mapped by the model when the loop reaches it,
    /// with the observations so far (interleaved execution, §3.1). `Some`:
    /// decided before the loop started, one decision per plan step.
    fixed: Option<&'a [OperatorDecision]>,
    /// Whether a failed step goes through error recovery (§3.2) or ends the
    /// loop with its error as it stands.
    recover: bool,
}

/// The step loop's outcome: the output and the positions, in the decisions it
/// pushed, of the attempts whose execution failed (every other decision is
/// the one its step succeeded with) — or the error and whether it asks for a
/// replan.
type StepsResult = Result<(QueryOutput, Vec<usize>), (CoreError, bool)>;

/// The key one query probes the session's plan cache under — and files the
/// plan that answered it under, if that plan had to be found live.
struct PlanProbe<'a> {
    cache: &'a PlanCache,
    fingerprint: String,
    template: QueryTemplate,
}

impl PlanProbe<'_> {
    /// Insert-after-success: file the plan that **worked**, whatever it took
    /// to find it. `decisions` holds every attempt of the successful pass
    /// over `plan` and `failed` the positions of those whose execution
    /// failed; what is stored is the one decision per step that executed,
    /// each in exactly the executor state a replay rebuilds (a failed attempt
    /// registers nothing — `executor::tests`). The cache itself still refuses
    /// a plan that does not verifiably thread every query literal through
    /// its text, so a later hit with different literals never replays the
    /// original values.
    fn admit(
        &self,
        plan: &LogicalPlan,
        decisions: &[OperatorDecision],
        failed: &[usize],
        replans: usize,
        trace: &mut ExecutionTrace,
    ) {
        let worked: Cow<'_, [OperatorDecision]> = if failed.is_empty() {
            Cow::Borrowed(decisions)
        } else {
            let attempts = decisions.iter().enumerate();
            let kept = attempts.filter(|(at, _)| !failed.contains(at));
            kept.map(|(_, decision)| decision.clone()).collect()
        };
        // A pre-mapped list shorter than the plan ended the loop early.
        if worked.len() != plan.steps.len() {
            return;
        }
        match self
            .cache
            .insert(&self.fingerprint, &self.template, plan, &worked)
        {
            PlanInsertOutcome::Inserted { written, .. } => {
                trace.record_plan_cache(PlanCacheCalls {
                    insertions: 1,
                    disk_writes: usize::from(written),
                    ..PlanCacheCalls::default()
                });
                if replans > 0 || !failed.is_empty() {
                    trace.record(
                        Phase::Planning,
                        "plan-cache",
                        format!(
                            "cached after recovery: the {} decision(s) that executed are stored; \
                             {} failed attempt(s) and {replans} replan(s) dropped",
                            worked.len(),
                            failed.len()
                        ),
                    );
                }
            }
            PlanInsertOutcome::AlreadyPresent => {}
            PlanInsertOutcome::Rejected => {
                trace.record(
                    Phase::Planning,
                    "plan-cache",
                    "not cached: the plan does not verifiably thread every \
                     query literal through its text, so replaying it under \
                     different literals would be unsafe",
                );
            }
        }
    }
}

/// The session state shared between the public [`Caesura`] facade and the
/// scheduler's worker threads: the lake, the model client, the prompt
/// builder, the retriever index, and the cross-query perception cache.
/// Everything here is immutable or internally synchronized, so any number of
/// workers can run queries against it concurrently.
pub(crate) struct SessionCore {
    lake: DataLake,
    llm: Arc<dyn LlmClient>,
    config: CaesuraConfig,
    prompts: PromptBuilder,
    retriever: Retriever,
    /// The session-scoped perception answer cache (`None` when disabled).
    /// Owned here — not per query — so answers survive across queries over
    /// the session's `Arc`-shared lake; interior mutability (sharded locks)
    /// keeps concurrent queries safe.
    perception_cache: Option<Arc<PerceptionCache>>,
    /// The session-scoped validated-plan cache (`None` when disabled).
    /// `Arc`-shared for the same reason: every concurrent in-flight query of
    /// the scheduler pool probes and populates one cache.
    plan_cache: Option<Arc<PlanCache>>,
}

/// A CAESURA session over one data lake and one language model.
///
/// The session serves queries **concurrently**: [`Caesura::submit`] enqueues
/// a query on the session-owned scheduler pool and returns a [`QueryHandle`]
/// supporting `wait` / `poll` / `cancel` / `subscribe`. The blocking
/// [`Caesura::run`] and [`Caesura::query`] wrappers remain for sequential
/// callers and are byte-identical to the pre-serving behaviour.
pub struct Caesura {
    core: Arc<SessionCore>,
    scheduler: Scheduler,
}

impl Caesura {
    /// Create a session with the default configuration.
    pub fn new(lake: DataLake, llm: Arc<dyn LlmClient>) -> Self {
        Caesura::with_config(lake, llm, CaesuraConfig::default())
    }

    /// Create a session with an explicit configuration.
    ///
    /// # Panics
    ///
    /// When [`CaesuraConfig::persist`] is set and the store directory cannot
    /// be opened — most commonly because another live session holds its lock
    /// file. Use [`Caesura::try_with_config`] to handle that as a typed
    /// [`CoreError::StoreUnavailable`] instead.
    pub fn with_config(lake: DataLake, llm: Arc<dyn LlmClient>, config: CaesuraConfig) -> Self {
        match Caesura::try_with_config(lake, llm, config) {
            Ok(session) => session,
            Err(error) => panic!("{error}"),
        }
    }

    /// [`Caesura::with_config`] that surfaces persistent-store open failures
    /// as [`CoreError::StoreUnavailable`] instead of panicking. With
    /// [`CaesuraConfig::persist`] unset (the default unless
    /// `CAESURA_CACHE_DIR` is exported) this never fails.
    pub fn try_with_config(
        lake: DataLake,
        llm: Arc<dyn LlmClient>,
        config: CaesuraConfig,
    ) -> CoreResult<Caesura> {
        if let Some(enabled) = config.dict_encode {
            caesura_engine::dict::set_dict_encode(enabled);
        }
        let prompts = PromptBuilder::new(PromptConfig {
            few_shot: config.few_shot,
            example_values: config.example_values,
        });
        let retriever = Retriever::index(&lake);
        let mut perception_cache = config.perception_cache.unwrap_or_default().build();
        let mut plan_cache = config.plan_cache.unwrap_or_default().build();
        // Attach the persistent tier *under* the in-memory caches. Each tier
        // opens (and locks) its own store directory; a tier whose memory
        // cache is disabled stays disk-less too.
        if let Some(persist) = config.persist.as_ref().filter(|p| p.is_enabled()) {
            let open = |dir: std::path::PathBuf| {
                CacheStore::open(dir)
                    .map(Arc::new)
                    .map_err(|e| CoreError::StoreUnavailable {
                        message: e.to_string(),
                    })
            };
            if persist.perception {
                if let Some(cache) = perception_cache.as_mut() {
                    cache.attach_disk(open(persist.perception_dir())?);
                }
            }
            if persist.plans {
                if let Some(cache) = plan_cache.as_mut() {
                    let identity = plan_cache_identity(llm.as_ref(), &config);
                    cache.attach_disk(open(persist.plans_dir())?, identity);
                }
            }
        }
        let perception_cache = perception_cache.map(Arc::new);
        let plan_cache = plan_cache.map(Arc::new);
        let workers = config
            .session_workers
            .unwrap_or_else(crate::serving::workers_from_env)
            .max(1);
        let queue_depth = config
            .session_queue
            .unwrap_or(crate::serving::DEFAULT_QUEUE_DEPTH)
            .max(1);
        let policy = SchedPolicy {
            tiers: config
                .priority_tiers
                .unwrap_or(crate::sched::DEFAULT_PRIORITY_TIERS)
                .max(1),
            // `Some(0)` means unlimited, like `None`.
            tenant_quota: config.tenant_quota.filter(|&quota| quota > 0),
            weights: config.tenant_weights.clone(),
        };
        Ok(Caesura {
            core: Arc::new(SessionCore {
                lake,
                llm,
                config,
                prompts,
                retriever,
                perception_cache,
                plan_cache,
            }),
            scheduler: Scheduler::new(workers, queue_depth, policy),
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &CaesuraConfig {
        &self.core.config
    }

    /// The data lake this session queries.
    pub fn lake(&self) -> &DataLake {
        &self.core.lake
    }

    /// The session's perception answer cache (`None` when disabled). Useful
    /// for inspecting hit/miss/eviction counters across queries.
    pub fn perception_cache(&self) -> Option<&Arc<PerceptionCache>> {
        self.core.perception_cache.as_ref()
    }

    /// The session's validated-plan cache (`None` when disabled). Useful for
    /// inspecting hit/miss/invalidation counters across queries.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.core.plan_cache.as_ref()
    }

    /// Queue-depth / in-flight / completed counters of the session's serving
    /// scheduler, aggregated across all tenants.
    pub fn serving_stats(&self) -> ServingStats {
        self.scheduler.stats()
    }

    /// Per-tenant serving counters, one entry per tenant that has ever
    /// submitted (or been rejected), sorted by tenant name. The sums across
    /// tenants equal the corresponding [`Caesura::serving_stats`] fields.
    pub fn tenant_stats(&self) -> Vec<TenantServingStats> {
        self.scheduler.tenant_stats()
    }

    /// Submit a query for concurrent execution. The query is enqueued on the
    /// session's scheduler pool and the returned [`QueryHandle`] tracks it:
    /// block with `wait()`, probe with `poll()`/`status()`, stop it with
    /// `cancel()`, or stream its trace events live with `subscribe()`.
    ///
    /// The submission queue is bounded
    /// ([`CaesuraConfig::session_queue`]); when it is full this call
    /// **blocks** until a slot frees (backpressure). Use
    /// [`Caesura::try_submit`] for a non-blocking variant.
    ///
    /// The effective execution configuration is captured at
    /// submission time — [`CaesuraConfig::exec`] if set, otherwise the
    /// submitting thread's `parallel::exec_config()` — and pinned for the
    /// whole run, so a `parallel::with_config` scope around `submit` (or the
    /// blocking wrappers) behaves exactly as it did when queries ran on the
    /// calling thread.
    pub fn submit(&self, query: &str) -> QueryHandle {
        self.scheduler.submit(
            &self.core,
            query,
            self.effective_exec(),
            SubmitOptions::new(),
        )
    }

    /// [`Caesura::submit`] with explicit [`SubmitOptions`]: a tenant, a
    /// priority tier, and/or a deadline budget. Fail-fast: instead of
    /// blocking, a submission that cannot be admitted — queue full, tenant
    /// over quota, zero deadline, session shutting down — returns a typed
    /// [`AdmissionError`] and was never enqueued.
    ///
    /// A submission with default options (`SubmitOptions::new()`) behaves
    /// byte-identically to [`Caesura::try_submit`]; the blocking wrappers
    /// always use default options, so plain `submit`/`run`/`query` traffic
    /// is unaffected by tenancy.
    pub fn submit_with(
        &self,
        query: &str,
        options: SubmitOptions,
    ) -> Result<QueryHandle, AdmissionError> {
        self.scheduler
            .submit_with(&self.core, query, self.effective_exec(), options)
    }

    /// Non-blocking [`Caesura::submit`]: fails fast with a typed
    /// [`AdmissionError`] — [`AdmissionError::QueueFull`] at capacity,
    /// [`AdmissionError::ShuttingDown`] during session teardown — instead of
    /// blocking. Equivalent to [`Caesura::submit_with`] with default
    /// options.
    pub fn try_submit(&self, query: &str) -> Result<QueryHandle, AdmissionError> {
        self.submit_with(query, SubmitOptions::new())
    }

    fn effective_exec(&self) -> ExecConfig {
        self.core.config.exec.unwrap_or_else(parallel::exec_config)
    }

    /// Answer a natural-language query, returning only the output.
    /// Blocking wrapper: `self.run(query).output`.
    pub fn query(&self, query: &str) -> CoreResult<QueryOutput> {
        self.run(query).output
    }

    /// Answer a natural-language query, returning the full run record.
    /// Blocking wrapper over the serving API: exactly
    /// `self.submit(query).wait()` — outputs, trace events, and perception
    /// stats are byte-identical to pre-serving sessions (proven by
    /// `tests/serving_api.rs`).
    pub fn run(&self, query: &str) -> QueryRun {
        self.submit(query).wait()
    }
}

impl SessionCore {
    /// Run one scheduled query on a worker thread: pin the captured
    /// execution configuration, attach the live trace sink, stamp queue-wait
    /// and the scheduling decision, and honour the job's cancel token at
    /// every cooperative checkpoint.
    pub(crate) fn run_scheduled(&self, job: &JobState) -> QueryRun {
        let mut trace = ExecutionTrace::new();
        trace.set_sink(job.subscriber_sink());
        trace.set_queue_wait(job.queue_wait());
        // Only non-default submissions carry scheduling metadata, so
        // default-path traces stay byte-identical to the pre-tenancy
        // scheduler.
        if let Some(info) = job.scheduling_info() {
            trace.set_scheduling(info);
        }
        let mut decisions = Vec::new();
        let mut logical_plan = None;
        let started = Instant::now();
        let output = {
            let (trace, logical_plan, decisions) = (&mut trace, &mut logical_plan, &mut decisions);
            let cancel = job.cancel_token();
            let query = job.query();
            // Pin the thread count captured at submission time for the whole
            // query.
            parallel::with_config(job.exec(), move || {
                self.run_inner(query, trace, logical_plan, decisions, cancel)
            })
        };
        trace.set_total_duration(started.elapsed());
        // Detach the subscriber sink before the trace is stored: the stored
        // run must not keep live-stream channels open.
        trace.clear_sink();
        QueryRun {
            query: job.query().to_string(),
            logical_plan,
            decisions,
            output,
            trace,
        }
    }

    /// Cooperative cancellation checkpoint: if the submitter cancelled the
    /// query (or its deadline budget expired), record the `Phase::Recovery`
    /// trace event and stop with [`CoreError::Cancelled`].
    fn check_cancel(
        &self,
        cancel: &CancelToken,
        trace: &mut ExecutionTrace,
        at: &str,
    ) -> CoreResult<()> {
        match cancel.status() {
            CancelStatus::Active => Ok(()),
            CancelStatus::Cancelled => {
                trace.record(
                    Phase::Recovery,
                    "cancelled",
                    format!("cooperative cancellation observed {at}"),
                );
                Err(CoreError::Cancelled)
            }
            CancelStatus::DeadlineExpired => {
                trace.record(
                    Phase::Recovery,
                    "cancelled",
                    format!("deadline expired: cooperative cancellation observed {at}"),
                );
                Err(CoreError::Cancelled)
            }
        }
    }

    /// Record the trace event for a dispatch the transport interrupted
    /// mid-flight and turn it into [`CoreError::Cancelled`].
    fn dispatch_cancelled(&self, trace: &mut ExecutionTrace) -> CoreError {
        trace.record(
            Phase::Recovery,
            "cancelled",
            "cooperative cancellation interrupted an in-flight LLM dispatch",
        );
        CoreError::Cancelled
    }

    fn complete(
        &self,
        conversation: &Conversation,
        trace: &mut ExecutionTrace,
        phase: Phase,
        cancel: &CancelToken,
    ) -> CoreResult<String> {
        // Checked before *every* LLM dispatch: a cancelled query never costs
        // another round trip (and records no prompt it did not send).
        self.check_cancel(cancel, trace, "before an LLM dispatch")?;
        trace.record(phase, "prompt", conversation.render());
        trace.record_llm_call(conversation.approx_tokens());
        // The token is threaded into the transport: a cancellation-aware
        // client aborts mid-dispatch instead of serving the full round trip.
        let response = match self.llm.complete_cancellable(conversation, cancel) {
            Err(LlmError::Cancelled) => return Err(self.dispatch_cancelled(trace)),
            response => response?,
        };
        trace.record(phase, "response", response.clone());
        Ok(response)
    }

    fn run_inner(
        &self,
        query: &str,
        trace: &mut ExecutionTrace,
        logical_plan_out: &mut Option<LogicalPlan>,
        decisions_out: &mut Vec<OperatorDecision>,
        cancel: &CancelToken,
    ) -> CoreResult<QueryOutput> {
        // A query cancelled while still queued stops before any work.
        self.check_cancel(cancel, trace, "before the query started")?;

        // ---- Discovery phase -------------------------------------------------
        let phase_start = Instant::now();
        let discovered = self.discover(query, trace, cancel);
        trace.record_phase_duration(Phase::Discovery, phase_start.elapsed());
        let (catalog, relevant_columns) = discovered?;
        let discovered = Discovered {
            query,
            catalog: &catalog,
            relevant_columns: &relevant_columns,
        };

        // ---- Plan-cache probe ------------------------------------------------
        // Keyed on the *discovered* catalog (so retrieval differences keep
        // their own entries) and the literal-normalized query template. A hit
        // replays the validated plan with zero planner/mapping LLM calls; a
        // replayed plan that fails is evicted and the query falls through to
        // live planning below — never worse than the cache-off path.
        let probe = self.plan_cache.as_ref().map(|cache| PlanProbe {
            cache,
            fingerprint: schema_fingerprint(&catalog),
            template: normalize_query(query),
        });
        if let Some(PlanProbe {
            cache,
            fingerprint,
            template,
        }) = &probe
        {
            let phase_start = Instant::now();
            let cached = cache.lookup_tiered(fingerprint, template);
            trace.record_phase_duration(Phase::Planning, phase_start.elapsed());
            match cached {
                Some((cached, tier)) => {
                    trace.set_plan_source(PlanSource::Cached);
                    trace.record_plan_cache(PlanCacheCalls {
                        hits: 1,
                        disk_hits: usize::from(tier == caesura_llm::PlanTier::Disk),
                        ..PlanCacheCalls::default()
                    });
                    trace.record(
                        Phase::Planning,
                        "plan-source",
                        format!(
                            "cached: validated plan with {} step(s) replayed, planning and mapping skipped",
                            cached.plan.len()
                        ),
                    );
                    trace.record(Phase::Planning, "plan", cached.plan.render());
                    *logical_plan_out = Some(cached.plan.clone());
                    // Replayed with zero LLM calls and deliberately no
                    // per-step recovery: a cached plan that fails is not
                    // worth analyzing.
                    let decisions = StepDecisions {
                        fixed: Some(&cached.decisions),
                        recover: false,
                    };
                    match self.run_steps(
                        discovered,
                        &cached.plan,
                        decisions,
                        decisions_out,
                        trace,
                        cancel,
                    ) {
                        Ok((output, _)) => return Ok(output),
                        // Cancellation is not a verdict on the plan: keep the
                        // entry and stop.
                        Err((CoreError::Cancelled, _)) => return Err(CoreError::Cancelled),
                        Err((error, _)) => {
                            cache.invalidate(fingerprint, template);
                            trace.record_plan_cache(PlanCacheCalls {
                                invalidations: 1,
                                ..PlanCacheCalls::default()
                            });
                            trace.record(
                                Phase::Recovery,
                                "plan-cache",
                                format!(
                                    "cached plan failed at execution ({error}); entry evicted, replanning live"
                                ),
                            );
                            // The plan actually answering the query will be
                            // planned live.
                            trace.set_plan_source(PlanSource::Planned);
                            decisions_out.clear();
                            *logical_plan_out = None;
                        }
                    }
                }
                None => {
                    trace.set_plan_source(PlanSource::Planned);
                    trace.record_plan_cache(PlanCacheCalls {
                        misses: 1,
                        ..PlanCacheCalls::default()
                    });
                    trace.record(Phase::Planning, "plan-source", "planned: plan-cache miss");
                }
            }
        }

        // ---- Planning phase (with optional replans after failures) ----------
        let mut replans = 0usize;
        let mut planning_note: Option<String> = None;
        loop {
            let phase_start = Instant::now();
            let plan = self.plan(discovered, planning_note.as_deref(), trace, cancel);
            trace.record_phase_duration(Phase::Planning, phase_start.elapsed());
            let plan = plan?;
            *logical_plan_out = Some(plan.clone());

            // ---- Mapping phase + interleaved execution ----------------------
            // Non-interleaved ablation: every step is mapped before any runs.
            let premapped = if self.config.interleaved {
                None
            } else {
                let phase_start = Instant::now();
                let premapped = self.premap(discovered, &plan, trace, cancel);
                trace.record_phase_duration(Phase::Mapping, phase_start.elapsed());
                Some(premapped?)
            };
            let decisions = StepDecisions {
                fixed: premapped.as_deref(),
                recover: true,
            };
            match self.run_steps(discovered, &plan, decisions, decisions_out, trace, cancel) {
                Ok((output, failed)) => {
                    if let Some(probe) = &probe {
                        probe.admit(&plan, decisions_out, &failed, replans, trace);
                    }
                    return Ok(output);
                }
                Err((error, replan_requested)) => {
                    if replan_requested && replans < self.config.max_replans {
                        replans += 1;
                        planning_note = Some(format!(
                            "A previous plan failed with the error: {error}. Produce a corrected plan."
                        ));
                        trace.record(
                            Phase::Recovery,
                            "replan",
                            format!("attempt {replans}: {error}"),
                        );
                        decisions_out.clear();
                        continue;
                    }
                    return Err(error);
                }
            }
        }
    }

    /// Build the executor of one pass over a plan (batch configuration and
    /// `Arc`-shared perception cache attached). A query borrows the lake:
    /// both clones below share it.
    fn make_executor(&self) -> Executor {
        // No per-executor exec pin here: `run_scheduled` already scopes the
        // captured `exec` configuration around the whole query.
        let mut executor = Executor::new(self.lake.catalog().clone(), self.lake.images().clone());
        if let Some(batch) = self.config.llm_batch {
            executor = executor.with_batch_config(batch);
        }
        // Share the session-scoped answer cache: each query gets a fresh
        // executor, but the cache (and therefore every previously computed
        // perception answer) survives across queries.
        if let Some(cache) = &self.perception_cache {
            executor = executor.with_perception_cache(Arc::clone(cache));
        }
        executor
    }

    /// Assemble the query output from the last executed step.
    fn finish_output(
        &self,
        executor: &Executor,
        last_outcome: Option<StepOutcome>,
    ) -> CoreResult<QueryOutput> {
        match last_outcome {
            Some(StepOutcome::Plot { plot, table }) => Ok(QueryOutput::Plot {
                plot,
                // Shallow: the plot table's columns stay shared.
                table: table.as_ref().clone(),
            }),
            Some(StepOutcome::Table { name, .. }) => {
                let table = executor
                    .intermediate()
                    .table(&name)
                    .map(|t| t.as_ref().clone())
                    .map_err(CoreError::Engine)?;
                Ok(QueryOutput::from_table(table))
            }
            None => Err(CoreError::PlanningFailed {
                message: "the plan contained no executable steps".into(),
            }),
        }
    }

    fn discover(
        &self,
        query: &str,
        trace: &mut ExecutionTrace,
        cancel: &CancelToken,
    ) -> CoreResult<(Catalog, Vec<RelevantColumn>)> {
        // Dense-retrieval substitute: keep the top-k sources.
        let top = self.retriever.top_k(query, self.config.retrieval_top_k);
        trace.record(Phase::Discovery, "retrieved", top.join(", "));
        if top.is_empty() {
            return Err(CoreError::NoRelevantData {
                query: query.to_string(),
            });
        }
        let mut catalog = Catalog::new();
        for name in &top {
            if let Ok(table) = self.lake.catalog().table(name) {
                catalog.register_shared(std::sync::Arc::clone(table));
            }
        }
        for fk in self.lake.catalog().foreign_keys() {
            if catalog.contains(&fk.from_table) && catalog.contains(&fk.to_table) {
                catalog.add_foreign_key(fk.clone());
            }
        }

        let relevant_columns = if self.config.llm_discovery {
            let prompt = self.prompts.discovery_prompt(&catalog, query);
            let response = self.complete(&prompt, trace, Phase::Discovery, cancel)?;
            self.parse_relevant_response(&response, &catalog)
        } else {
            lexical_relevant_columns(&self.lake, query, self.config.example_values)
        };
        trace.record(
            Phase::Discovery,
            "relevant-columns",
            relevant_columns
                .iter()
                .map(|c| format!("{}.{}", c.table, c.column))
                .collect::<Vec<_>>()
                .join(", "),
        );
        Ok((catalog, relevant_columns))
    }

    fn parse_relevant_response(&self, response: &str, catalog: &Catalog) -> Vec<RelevantColumn> {
        let mut out = Vec::new();
        for line in response.lines() {
            let Some(rest) = line.trim().strip_prefix("Relevant:") else {
                continue;
            };
            let Some((table, column)) = rest.trim().split_once('.') else {
                continue;
            };
            let (table, column) = (table.trim().to_string(), column.trim().to_string());
            let examples = catalog
                .table(&table)
                .and_then(|t| t.example_values(&column, self.config.example_values))
                .unwrap_or_default();
            out.push(RelevantColumn {
                table,
                column,
                examples,
            });
        }
        out
    }

    fn plan(
        &self,
        discovered: Discovered<'_>,
        note: Option<&str>,
        trace: &mut ExecutionTrace,
        cancel: &CancelToken,
    ) -> CoreResult<LogicalPlan> {
        let query = discovered.query;
        let query_with_note = match note {
            Some(note) => format!("{query} ({note})"),
            None => query.to_string(),
        };
        let prompt = self.prompts.planning_prompt(
            discovered.catalog,
            &query_with_note,
            discovered.relevant_columns,
        );
        let response = self.complete(&prompt, trace, Phase::Planning, cancel)?;
        let plan = LogicalPlan::parse(&response).map_err(|e| CoreError::PlanningFailed {
            message: e.to_string(),
        })?;
        if plan.is_empty() {
            return Err(CoreError::PlanningFailed {
                message: "the planning phase returned an empty plan".into(),
            });
        }
        trace.record(Phase::Planning, "plan", plan.render());
        Ok(plan)
    }

    /// The non-interleaved ablation's mapping phase: decide every operator
    /// before executing any. Without observations the mapping prompts are
    /// independent, so they are pipelined through one `complete_batch`
    /// dispatch instead of one round trip per step. Trade-off: the whole
    /// batch is served before the first response is inspected, so an early
    /// mapping failure no longer spares the remaining steps' completions
    /// (the per-step loop stops at the first failure).
    fn premap(
        &self,
        discovered: Discovered<'_>,
        plan: &LogicalPlan,
        trace: &mut ExecutionTrace,
        cancel: &CancelToken,
    ) -> CoreResult<Vec<OperatorDecision>> {
        // One checkpoint guards the whole pipelined dispatch, mirroring
        // the per-dispatch check of the interleaved path.
        self.check_cancel(cancel, trace, "before the pipelined mapping dispatch")?;
        let nothing_executed = Catalog::new();
        let prompts: Vec<Conversation> = plan
            .steps
            .iter()
            .map(|step| {
                self.prompts.mapping_prompt(&MappingRequest {
                    catalog: discovered.catalog,
                    intermediate: &nothing_executed,
                    query: discovered.query,
                    step,
                    relevant_columns: discovered.relevant_columns,
                    observations: &[],
                    error_context: None,
                })
            })
            .collect();
        for prompt in &prompts {
            trace.record(Phase::Mapping, "prompt", prompt.render());
            trace.record_llm_call(prompt.approx_tokens());
        }
        let responses = self.llm.complete_batch_cancellable(&prompts, cancel);
        // Record every completed response before parsing any: the whole
        // batch was served and billed, so the trace must show it even
        // when an early response fails to parse.
        for response in responses.iter().flatten() {
            trace.record(Phase::Mapping, "response", response.clone());
        }
        let mut all = Vec::new();
        for response in responses {
            let response = match response {
                Err(LlmError::Cancelled) => return Err(self.dispatch_cancelled(trace)),
                response => response?,
            };
            all.push(OperatorDecision::parse(&response)?);
        }
        Ok(all)
    }

    /// The one step loop: decide each step of `plan` as `decisions` says,
    /// execute it, observe, and recover (§3.1–3.2), over a fresh executor.
    /// Every attempt's decision is pushed onto `decisions_out`; the output
    /// comes back with the positions of the failed ones (so what is left is,
    /// per step, the decision that worked — what the plan cache stores), or
    /// `(error, replan_requested)` on failure.
    fn run_steps(
        &self,
        discovered: Discovered<'_>,
        plan: &LogicalPlan,
        decisions: StepDecisions<'_>,
        decisions_out: &mut Vec<OperatorDecision>,
        trace: &mut ExecutionTrace,
        cancel: &CancelToken,
    ) -> StepsResult {
        let mut executor = self.make_executor();
        // The latest new-column notes per output table, in execution order.
        // Only mapping prompts read them.
        let mut observations: Vec<StepObservation> = Vec::new();
        let mut last_outcome: Option<StepOutcome> = None;
        let mut failed: Vec<usize> = Vec::new();

        // Fixed decisions come one per step; a shorter list ends the loop.
        let steps = decisions.fixed.map_or(usize::MAX, <[_]>::len);
        for (index, step) in plan.steps.iter().enumerate().take(steps) {
            // Checked between plan steps: a cancelled query stops before
            // mapping or executing the next step.
            self.check_cancel(cancel, trace, "between plan steps")
                .map_err(|e| (e, false))?;
            let mut attempt = 0usize;
            let mut error_note: Option<String> = None;
            loop {
                attempt += 1;
                let decision = match decisions.fixed {
                    Some(all) => all[index].clone(),
                    None => {
                        let phase_start = Instant::now();
                        let request = MappingRequest {
                            catalog: discovered.catalog,
                            intermediate: executor.intermediate(),
                            query: discovered.query,
                            step,
                            relevant_columns: discovered.relevant_columns,
                            observations: &observations,
                            error_context: error_note.as_deref(),
                        };
                        let decided = self.decide_step(&request, trace, cancel);
                        trace.record_phase_duration(Phase::Mapping, phase_start.elapsed());
                        decided.map_err(|e| (e, false))?
                    }
                };
                trace.record(
                    Phase::Mapping,
                    "decision",
                    format!(
                        "Step {}: {} ({})",
                        step.number,
                        decision.operator.name(),
                        decision.arguments.join("; ")
                    ),
                );

                // Checked before each step execution — which is where this
                // step's perception batches would dispatch.
                self.check_cancel(cancel, trace, "before a step execution")
                    .map_err(|e| (e, false))?;
                let step_result = executor.execute_traced(step, &decision, trace);
                match step_result {
                    Ok(outcome) => {
                        trace.record(Phase::Execution, "observation", outcome.observation());
                        if decisions.fixed.is_none() {
                            remember_observation(&mut observations, &outcome);
                        }
                        decisions_out.push(decision);
                        last_outcome = Some(outcome);
                        break;
                    }
                    Err(error) => {
                        trace.record(Phase::Execution, "error", error.to_string());
                        if !decisions.recover {
                            return Err((error, false));
                        }
                        failed.push(decisions_out.len());
                        decisions_out.push(decision.clone());
                        if attempt >= self.config.max_step_attempts {
                            return Err((
                                CoreError::PlanFailed {
                                    step: step.number,
                                    step_description: step.description.clone(),
                                    message: error.to_string(),
                                    attempts: attempt,
                                },
                                false,
                            ));
                        }
                        // Error recovery (§3.2): ask the model what went wrong.
                        let phase_start = Instant::now();
                        let analysis = self.analyze_error(
                            discovered.query,
                            plan,
                            step,
                            &decision,
                            &error,
                            trace,
                            cancel,
                        );
                        trace.record_phase_duration(Phase::Recovery, phase_start.elapsed());
                        let analysis = analysis.map_err(|e| (e, false))?;
                        if analysis.should_replan() {
                            return Err((
                                CoreError::PlanFailed {
                                    step: step.number,
                                    step_description: step.description.clone(),
                                    message: error.to_string(),
                                    attempts: attempt,
                                },
                                true,
                            ));
                        }
                        error_note = Some(format!("The error was: {error}. {}", analysis.fix));
                    }
                }
            }
        }

        self.finish_output(&executor, last_outcome)
            .map(|output| (output, failed))
            .map_err(|e| (e, false))
    }

    fn decide_step(
        &self,
        request: &MappingRequest<'_>,
        trace: &mut ExecutionTrace,
        cancel: &CancelToken,
    ) -> CoreResult<OperatorDecision> {
        let prompt = self.prompts.mapping_prompt(request);
        let response = self.complete(&prompt, trace, Phase::Mapping, cancel)?;
        Ok(OperatorDecision::parse(&response)?)
    }

    #[allow(clippy::too_many_arguments)]
    fn analyze_error(
        &self,
        query: &str,
        plan: &LogicalPlan,
        step: &LogicalStep,
        decision: &OperatorDecision,
        error: &CoreError,
        trace: &mut ExecutionTrace,
        cancel: &CancelToken,
    ) -> CoreResult<ErrorAnalysis> {
        let prompt = self.prompts.error_prompt(
            query,
            &plan.render(),
            &format!("Step {}: {}", step.number, step.description),
            &format!(
                "Operator: {}, Arguments: ({})",
                decision.operator.name(),
                decision.arguments.join("; ")
            ),
            &error.to_string(),
        );
        let response = self.complete(&prompt, trace, Phase::Recovery, cancel)?;
        let analysis = ErrorAnalysis::parse(&response)?;
        trace.record(Phase::Recovery, "analysis", analysis.render());
        Ok(analysis)
    }
}

/// Keep the latest new-column notes per output table: a step's notes replace
/// those of the table it overwrote, and a step that added no column leaves
/// none (the table line a later prompt renders says the rest).
fn remember_observation(observations: &mut Vec<StepObservation>, outcome: &StepOutcome) {
    let StepOutcome::Table {
        name, observation, ..
    } = outcome
    else {
        return;
    };
    observations.retain(|earlier| earlier.table != *name);
    if !observation.new_columns.is_empty() {
        observations.push(StepObservation {
            table: name.clone(),
            new_columns: observation.new_columns.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::QueryStatus;
    use caesura_data::{generate_artwork, generate_rotowire, ArtworkConfig, RotowireConfig};
    use caesura_engine::Value;
    use caesura_llm::SimulatedLlm;

    fn artwork_session() -> Caesura {
        let data = generate_artwork(&ArtworkConfig::small());
        Caesura::new(data.lake, Arc::new(SimulatedLlm::gpt4()))
    }

    #[test]
    fn figure1_query_runs_end_to_end_and_produces_a_plot() {
        let session = artwork_session();
        let run = session
            .run("Plot the number of paintings depicting Madonna and Child for each century!");
        let output = run.output.expect("the figure-1 query should execute");
        assert_eq!(output.kind(), "plot");
        let plot = output.plot().unwrap();
        assert_eq!(plot.spec.x_column, "century");
        assert!(run.logical_plan.unwrap().len() >= 5);
        assert!(run.trace.llm_calls() >= 6);
    }

    #[test]
    fn simple_count_query_returns_a_single_value() {
        let session = artwork_session();
        let data = generate_artwork(&ArtworkConfig::small());
        let output = session
            .query("How many paintings are in the museum?")
            .unwrap();
        assert_eq!(output.kind(), "value");
        assert_eq!(
            output.as_value().unwrap(),
            &Value::Int(data.records.len() as i64)
        );
    }

    #[test]
    fn figure4_query1_returns_one_row_per_team_with_correct_maxima() {
        let data = generate_rotowire(&RotowireConfig::small());
        let session = Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()));
        let output = session
            .query("For every team, what is the highest number of points they scored in a game?")
            .unwrap();
        let table = output.table().expect("expected a table output").clone();
        // Every team that played at least one game appears with its ground-truth maximum.
        for row in table.rows() {
            let team = row.get(0).as_str().unwrap().to_string();
            let reported = row.get(1).as_int().unwrap();
            let expected = data.max_points_of(&team).unwrap();
            assert_eq!(reported, expected, "wrong maximum for {team}");
        }
    }

    #[test]
    fn non_interleaved_mode_still_answers_relational_queries() {
        let data = generate_rotowire(&RotowireConfig::small());
        let config = CaesuraConfig {
            interleaved: false,
            ..CaesuraConfig::default()
        };
        let session = Caesura::with_config(data.lake, Arc::new(SimulatedLlm::gpt4()), config);
        let output = session
            .query("For each conference, how many teams are there?")
            .unwrap();
        assert_eq!(output.kind(), "table");
        assert_eq!(output.table().unwrap().num_rows(), 2);
    }

    #[test]
    fn llm_discovery_mode_runs() {
        let data = generate_artwork(&ArtworkConfig::small());
        let config = CaesuraConfig {
            llm_discovery: true,
            ..CaesuraConfig::default()
        };
        let session = Caesura::with_config(data.lake, Arc::new(SimulatedLlm::gpt4()), config);
        let run = session.run("How many paintings belong to the Impressionism movement?");
        assert!(run.succeeded(), "failed: {:?}", run.output.err());
    }

    #[test]
    fn run_records_a_full_trace() {
        let session = artwork_session();
        let run = session.run("How many paintings depict a horse?");
        assert!(run.trace.events_of(Phase::Planning).len() >= 2);
        assert!(!run.trace.events_of(Phase::Mapping).is_empty());
        assert!(run.trace.prompt_tokens() > 0);
    }

    #[test]
    fn run_records_wall_clock_phase_timings() {
        let session = artwork_session();
        let run = session.run("How many paintings depict a horse?");
        let timings = run.trace.timings();
        assert!(timings.total() > std::time::Duration::ZERO);
        assert!(timings.measured() <= timings.total());
        assert!(timings.of(Phase::Planning) > std::time::Duration::ZERO);
        assert_eq!(run.latency(), timings.total());
        assert!(timings.end_to_end() >= timings.total());
    }

    /// The pipelined mapping dispatch is timed on its failing exits too —
    /// here a response that is no operator decision — so that time does not
    /// fall into the residual.
    #[test]
    fn a_failed_pipelined_mapping_still_records_its_phase_duration() {
        let plan = LogicalPlan {
            thought: "count".into(),
            steps: vec![LogicalStep::new(
                1,
                "Count the rows of the 'paintings_metadata' table.",
                vec!["paintings_metadata".into()],
                "result_table",
                vec!["n".into()],
            )],
        };
        let script = vec![plan.render(), "no operator here".to_string()];
        let config = CaesuraConfig {
            interleaved: false,
            ..CaesuraConfig::default()
        };
        let lake = generate_artwork(&ArtworkConfig::small()).lake;
        let session = Caesura::with_config(
            lake,
            Arc::new(caesura_llm::ScriptedLlm::new(script)),
            config,
        );
        let run = session.run("How many paintings are in the museum?");
        assert!(
            matches!(run.output, Err(CoreError::Llm(_))),
            "{:?}",
            run.output
        );
        assert_eq!(run.trace.llm_calls(), 2);
        assert!(run.trace.timings().of(Phase::Mapping) > std::time::Duration::ZERO);
    }

    #[test]
    fn submitted_queries_complete_with_handles_and_stats() {
        let data = generate_artwork(&ArtworkConfig::small());
        let config = CaesuraConfig {
            session_workers: Some(2),
            session_queue: Some(8),
            ..CaesuraConfig::default()
        };
        let session = Caesura::with_config(data.lake, Arc::new(SimulatedLlm::gpt4()), config);
        assert_eq!(session.serving_stats().workers, 2);
        assert_eq!(session.serving_stats().queue_depth, 8);
        assert_eq!(session.serving_stats().completed, 0);

        let first = session.submit("How many paintings are in the museum?");
        let second = session.submit("How many paintings depict a horse?");
        assert_eq!(first.query(), "How many paintings are in the museum?");
        let first = first.wait();
        let second = second.wait();
        assert!(first.succeeded(), "failed: {:?}", first.output.err());
        assert!(second.succeeded(), "failed: {:?}", second.output.err());

        let stats = session.serving_stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cancelled, 0);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn poll_transitions_to_finished() {
        let session = artwork_session();
        let handle = session.submit("How many paintings are in the museum?");
        // Wait for completion via polling only.
        let mut run = None;
        for _ in 0..1000 {
            if let Some(done) = handle.poll() {
                run = Some(done);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let run = run.expect("query did not finish within the polling budget");
        assert!(run.succeeded());
        assert_eq!(handle.status(), QueryStatus::Finished);
        // The handle is still usable after poll; wait returns the same run.
        assert_eq!(handle.wait().output, run.output);
    }

    #[test]
    fn serialized_scheduler_preserves_submission_order() {
        let data = generate_artwork(&ArtworkConfig::small());
        let config = CaesuraConfig {
            session_workers: Some(1),
            ..CaesuraConfig::default()
        };
        let session = Caesura::with_config(data.lake, Arc::new(SimulatedLlm::gpt4()), config);
        let handles: Vec<_> = [
            "How many paintings are in the museum?",
            "How many paintings depict a horse?",
        ]
        .iter()
        .map(|q| session.submit(q))
        .collect();
        for handle in handles {
            assert!(handle.wait().succeeded());
        }
        assert_eq!(session.serving_stats().completed, 2);
    }
}
