//! Physical-operator execution against a data lake.
//!
//! The executor owns the intermediate state of one query: the base catalog of
//! the lake, the scratch catalog of tables produced by executed steps, and the
//! simulated perception models. Each [`OperatorDecision`] is executed
//! immediately after the mapping phase decides it (interleaved execution,
//! §3.1), and returns an observation string that is fed back into the next
//! mapping prompt.
//!
//! Perception operators (VisualQA / TextQA / Image Select) route through the
//! gather → dedup → cache → batch → scatter pipeline of
//! `caesura_modal::batch`: the executor pins the [`BatchConfig`] for the
//! query, optionally shares the session's
//! [`PerceptionCache`] (so answers survive across the session's queries),
//! and accumulates the per-dispatch [`BatchStats`] — including failed
//! dispatches, whose model calls were paid just the same — behind
//! [`Executor::perception_stats`].
//!
//! SQL steps may route through the session's [`StepRecycler`] instead: the
//! results of the SQL steps a session has executed, keyed by the executed
//! prefix that produced them, so a join, selection or aggregation a later
//! query repeats after the same prefix registers the held result instead of
//! running again (see [`StepRecycler`] for why that cannot change a result).

use crate::error::{CoreError, CoreResult};
use caesura_engine::{sql, Catalog, Observation, Table};
use caesura_llm::{LogicalStep, OperatorDecision};
use caesura_modal::operators::{
    apply_image_select, apply_plot, apply_python_udf, apply_text_qa, apply_visual_qa,
    parse_result_dtype, Perception,
};
use caesura_modal::{
    BatchConfig, BatchStats, ImageSelectModel, ImageStore, OperatorKind, PerceptionBackend,
    PerceptionCache, Plot, TextQaModel, TransformCodegen, VisualQaModel,
};
use caesura_store::{keyed_hash, CacheKey, TieredCache, TieredStats};
use std::sync::Arc;

/// The result of executing one physical step.
#[derive(Debug, Clone)]
pub enum StepOutcome {
    /// A (possibly new) table was produced and registered under `name`.
    Table {
        /// Name the result was registered under.
        name: String,
        /// The result as described to the LLM.
        observation: Observation,
        /// Number of rows of the result.
        num_rows: usize,
    },
    /// A plot was produced (terminal step).
    Plot {
        /// The plot.
        plot: Plot,
        /// The table the plot was rendered from (shared, not copied).
        table: Arc<Table>,
    },
}

impl StepOutcome {
    /// The observation string fed back to the mapping prompt.
    pub fn observation(&self) -> String {
        match self {
            StepOutcome::Table { observation, .. } => observation.to_string(),
            StepOutcome::Plot { plot, .. } => format!(
                "A {} plot with '{}' on the X-axis and '{}' on the Y-axis has been produced.",
                plot.spec.kind.name(),
                plot.spec.x_column,
                plot.spec.y_column
            ),
        }
    }
}

/// Everything [`Executor::execute`] reads of one step it executed: an
/// executed prefix is the list of these, in execution order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExecutedStep {
    number: usize,
    operator: OperatorKind,
    arguments: Vec<String>,
    inputs: Vec<String>,
    output: String,
    new_columns: Vec<String>,
}

impl ExecutedStep {
    fn new(step: &LogicalStep, decision: &OperatorDecision) -> Self {
        ExecutedStep {
            number: step.number,
            operator: decision.operator,
            arguments: decision.arguments.clone(),
            inputs: step.inputs.clone(),
            output: step.output.clone(),
            new_columns: step.new_columns.clone(),
        }
    }
}

/// A probe of the recycler: an executed prefix and its hash, composed step
/// by step as the prefix grew. The hash only finds a slot; the comparison of
/// the whole prefix decides identity.
struct Prefix<'a> {
    steps: &'a [ExecutedStep],
    hash: u64,
}

impl CacheKey<Box<[ExecutedStep]>> for Prefix<'_> {
    fn hash64(&self) -> u64 {
        self.hash
    }

    fn equivalent(&self, key: &Box<[ExecutedStep]>) -> bool {
        self.steps == &key[..]
    }

    fn to_key(&self) -> Box<[ExecutedStep]> {
        self.steps.into()
    }

    fn disk_key(&self, _: &str) -> Vec<u8> {
        unreachable!("the step recycler has no disk tier")
    }
}

/// A recycled SQL result: the table as it was registered, and what the step
/// observed of it.
#[derive(Clone)]
struct Recycled {
    table: Arc<Table>,
    observation: Observation,
}

/// The session's step recycler: the results of the SQL steps (join,
/// selection, aggregation, query) its executors ran, each keyed by the
/// executed prefix that produced it — every step the executor had executed
/// before it, and the step itself.
///
/// **Why a recycled result is the result.** An executor starts from an empty
/// intermediate catalog over the session's immutable lake, and a failed step
/// registers nothing (nor joins the prefix), so equal prefixes rebuild equal
/// catalogs — provided every step is deterministic. SQL and the transform
/// compiler are; perception backends are by the contract the perception
/// cache already rests on. A session therefore has a recycler exactly when it
/// has a perception cache: `CacheConfig::off()`, the opt-out for backends
/// that are not deterministic, turns both off.
///
/// At most a constant number of results, in a memory-only [`TieredCache`];
/// only successful results enter. Two queries racing on one prefix both
/// compute it, and the second insert only refreshes the entry.
pub struct StepRecycler {
    results: TieredCache<Box<[ExecutedStep]>, Recycled>,
}

impl StepRecycler {
    /// A recycler holding at most `capacity` results.
    pub(crate) fn new(capacity: usize) -> Self {
        StepRecycler {
            results: TieredCache::new(capacity, |_| Vec::new(), |_| None),
        }
    }

    /// Lifetime counters: `hits` are SQL steps recycled, `misses` ran.
    pub fn stats(&self) -> TieredStats {
        self.results.stats()
    }
}

/// Executes physical operators and tracks intermediate tables.
pub struct Executor {
    base: Catalog,
    intermediate: Catalog,
    images: ImageStore,
    visual_qa: VisualQaModel,
    text_qa: TextQaModel,
    image_select: ImageSelectModel,
    codegen: TransformCodegen,
    /// The most recently produced table name.
    last_output: Option<String>,
    /// Batching configuration for the perception-operator model calls.
    batch: BatchConfig,
    /// Optional session-scoped perception answer cache, shared (`Arc`) with
    /// the owning session so answers survive across queries.
    cache: Option<Arc<PerceptionCache>>,
    /// Accumulated perception call accounting across executed steps.
    perception: BatchStats,
    /// Optional session-scoped SQL step recycler.
    recycler: Option<Arc<StepRecycler>>,
    /// Every step executed so far, and the hash of that prefix (kept only
    /// with a recycler attached).
    prefix: Vec<ExecutedStep>,
    prefix_hash: u64,
}

impl Executor {
    /// Create an executor over a lake's catalog and image store. Both are
    /// shared handles — tables and image annotations stay `Arc`-shared with
    /// the lake — so building and dropping an executor costs O(tables)
    /// reference-count bumps whatever the lake holds.
    pub fn new(base: Catalog, images: ImageStore) -> Self {
        Executor {
            base,
            intermediate: Catalog::new(),
            images,
            visual_qa: VisualQaModel::new(),
            text_qa: TextQaModel::new(),
            image_select: ImageSelectModel::new(),
            codegen: TransformCodegen::new(),
            last_output: None,
            batch: BatchConfig::default(),
            cache: None,
            perception: BatchStats::default(),
            recycler: None,
            prefix: Vec::new(),
            prefix_hash: 0,
        }
    }

    /// Pin the perception-call batching configuration (batch size) for the
    /// multi-modal operators executed by this executor.
    pub fn with_batch_config(mut self, config: BatchConfig) -> Self {
        self.batch = config;
        self
    }

    /// Attach a perception answer cache. The cache is `Arc`-shared — a
    /// session passes the same cache to every executor it creates, so
    /// answers survive across plan steps *and* across queries (see
    /// `caesura_modal::cache` for why cached answers are provably the
    /// answers the models would give). Executors without a cache behave
    /// byte-for-byte as before.
    pub fn with_perception_cache(mut self, cache: Arc<PerceptionCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach the session's step recycler: a SQL step whose executed prefix
    /// the recycler holds registers the held result instead of running.
    pub(crate) fn with_step_recycler(mut self, recycler: Arc<StepRecycler>) -> Self {
        self.recycler = Some(recycler);
        self
    }

    /// The attached perception answer cache, if any.
    pub fn perception_cache(&self) -> Option<&Arc<PerceptionCache>> {
        self.cache.as_ref()
    }

    /// Accumulated perception-operator call accounting (rows walked, unique
    /// model calls dispatched, batches, calls saved by dedup) across every
    /// step executed so far.
    pub fn perception_stats(&self) -> BatchStats {
        self.perception
    }

    /// The catalog of intermediate tables produced so far (used to render the
    /// mapping prompt's "intermediate tables" section).
    pub fn intermediate(&self) -> &Catalog {
        &self.intermediate
    }

    /// The base catalog of the data lake.
    pub fn base(&self) -> &Catalog {
        &self.base
    }

    /// The most recently produced table, if any (shared handle).
    fn last_table(&self) -> Option<&Arc<Table>> {
        let name = self.last_output.as_ref()?;
        self.intermediate.table(name).ok()
    }

    /// Base and intermediate tables merged into one catalog for SQL execution.
    /// Every registration is an `Arc` bump — no table data moves.
    fn combined(&self) -> Catalog {
        let mut combined = self.base.clone();
        for table in self.intermediate.tables() {
            combined.register_shared(Arc::clone(table));
        }
        combined
    }

    /// Resolve an input table by name, searching intermediate tables first.
    /// Returns a shared handle; the columns stay owned by the catalogs.
    fn input_table(&self, name: &str) -> CoreResult<Arc<Table>> {
        if let Ok(table) = self.intermediate.table_shared(name) {
            return Ok(table);
        }
        if let Ok(table) = self.base.table_shared(name) {
            return Ok(table);
        }
        // Fall back to the most recent output (plans sometimes refer to the
        // "current" table by a stale name).
        if let Some(table) = self.last_table() {
            return Ok(Arc::clone(table));
        }
        Err(CoreError::MissingInput {
            table: name.to_string(),
        })
    }

    /// How a perception step of this executor reaches `backend`: under the
    /// pinned batch configuration, through the session's cache if attached.
    fn perception<'a>(&'a self, backend: &'a dyn PerceptionBackend) -> Perception<'a> {
        Perception {
            backend,
            batch: self.batch,
            cache: self.cache.as_deref(),
        }
    }

    fn step_input(&self, step: &LogicalStep) -> CoreResult<Arc<Table>> {
        match step.inputs.first() {
            Some(name) => self.input_table(name),
            None => self
                .last_table()
                .map(Arc::clone)
                .ok_or(CoreError::MissingInput {
                    table: "(no input specified)".to_string(),
                }),
        }
    }

    fn register_result(
        &mut self,
        step: &LogicalStep,
        table: Table,
        new_columns: &[String],
    ) -> StepOutcome {
        let name = if step.output.is_empty() || step.output == "plot" {
            format!("step_{}_result", step.number)
        } else {
            step.output.clone()
        };
        let table = Arc::new(table.renamed(name));
        let observation = table.observation(new_columns);
        self.register_shared(table, observation)
    }

    /// Register `table` under its own name as the step's output.
    fn register_shared(&mut self, table: Arc<Table>, observation: Observation) -> StepOutcome {
        let name = table.name().to_string();
        let num_rows = table.num_rows();
        self.intermediate.register_shared(table);
        self.last_output = Some(name.clone());
        StepOutcome::Table {
            name,
            observation,
            num_rows,
        }
    }

    /// [`Executor::execute`] plus trace accounting: records the step's
    /// execution-phase wall clock, whether the recycler supplied its result,
    /// and its perception-call delta (including for failed attempts, whose
    /// dispatches were paid just the same) on `trace`. The session's one step loop runs live-mapped and replayed
    /// decisions through here, so cached and live executions account
    /// identically.
    pub fn execute_traced(
        &mut self,
        step: &LogicalStep,
        decision: &OperatorDecision,
        trace: &mut crate::trace::ExecutionTrace,
    ) -> CoreResult<StepOutcome> {
        use crate::trace::{PerceptionCalls, Phase};
        let perception_before = self.perception_stats();
        let phase_start = std::time::Instant::now();
        let result = self.execute_recycling(step, decision);
        trace.record_phase_duration(Phase::Execution, phase_start.elapsed());
        let result = result.map(|(outcome, recycled)| {
            if recycled {
                trace.record_recycled_step();
            }
            outcome
        });
        let delta = self.perception_stats().since(&perception_before);
        if delta.rows > 0 || delta.unique_requests > 0 {
            trace.record(Phase::Execution, "perception", delta.summary());
            trace.record_perception(PerceptionCalls {
                rows: delta.rows,
                // "calls" are model calls that actually reached the backend:
                // cache hits never dispatch.
                calls: delta.dispatched_requests(),
                batches: delta.batches,
                saved_calls: delta.saved_calls,
                cache_hits: delta.cache_hits,
                cache_misses: delta.cache_misses,
                cache_evictions: delta.cache_evictions,
                disk_hits: delta.disk_hits,
                disk_misses: delta.disk_misses,
                disk_writes: delta.disk_writes,
            });
        }
        result
    }

    /// Execute one operator decision for one logical step.
    pub fn execute(
        &mut self,
        step: &LogicalStep,
        decision: &OperatorDecision,
    ) -> CoreResult<StepOutcome> {
        let executed = self.execute_recycling(step, decision);
        executed.map(|(outcome, _)| outcome)
    }

    /// [`Executor::execute`] through the attached recycler, if any: a SQL
    /// step whose executed prefix the recycler holds registers the held
    /// result (`true`) instead of running; a SQL step that runs files its
    /// result. A step that fails leaves the prefix as it was.
    fn execute_recycling(
        &mut self,
        step: &LogicalStep,
        decision: &OperatorDecision,
    ) -> CoreResult<(StepOutcome, bool)> {
        let Some(recycler) = self.recycler.clone() else {
            return self.run(step, decision).map(|outcome| (outcome, false));
        };
        let executed = ExecutedStep::new(step, decision);
        let hash = keyed_hash(&(self.prefix_hash, &executed));
        self.prefix.push(executed);
        let sql = matches!(
            decision.operator,
            OperatorKind::SqlJoin
                | OperatorKind::SqlSelection
                | OperatorKind::SqlAggregation
                | OperatorKind::Sql
        );
        if sql {
            let probe = Prefix {
                steps: &self.prefix,
                hash,
            };
            if let Some(hit) = recycler.results.get(&probe, "") {
                self.prefix_hash = hash;
                let Recycled { table, observation } = hit.value;
                return Ok((self.register_shared(table, observation), true));
            }
        }
        let outcome = match self.run(step, decision) {
            Ok(outcome) => outcome,
            Err(error) => {
                self.prefix.pop();
                return Err(error);
            }
        };
        self.prefix_hash = hash;
        if let (true, StepOutcome::Table { observation, .. }) = (sql, &outcome) {
            let table = Arc::clone(self.last_table().expect("the step registered its table"));
            let observation = observation.clone();
            let probe = Prefix {
                steps: &self.prefix,
                hash,
            };
            recycler
                .results
                .put(&probe, Recycled { table, observation }, "");
        }
        Ok((outcome, false))
    }

    /// Run one operator decision for one logical step.
    fn run(&mut self, step: &LogicalStep, decision: &OperatorDecision) -> CoreResult<StepOutcome> {
        let args = &decision.arguments;
        let expect_args = |n: usize| -> CoreResult<()> {
            if args.len() < n {
                Err(CoreError::Modal(
                    caesura_modal::ModalError::InvalidArguments {
                        operator: decision.operator.name().to_string(),
                        message: format!("expected at least {n} argument(s), got {}", args.len()),
                    },
                ))
            } else {
                Ok(())
            }
        };
        match decision.operator {
            OperatorKind::SqlJoin | OperatorKind::SqlAggregation | OperatorKind::Sql => {
                expect_args(1)?;
                let result = sql::run_sql(&self.combined(), &args[0])?;
                Ok(self.register_result(step, result, &step.new_columns))
            }
            OperatorKind::SqlSelection => {
                expect_args(1)?;
                let input = self.step_input(step)?;
                // The argument is either a bare condition or a full SELECT.
                let result = if args[0].trim().to_uppercase().starts_with("SELECT") {
                    sql::run_sql(&self.combined(), &args[0])?
                } else {
                    let condition = sql::parse_expression(&args[0])?;
                    caesura_engine::ops::filter(input.as_ref(), &condition)?
                };
                Ok(self.register_result(step, result, &[]))
            }
            OperatorKind::VisualQa => {
                expect_args(3)?;
                let input = self.step_input(step)?;
                let dtype = parse_result_dtype(args.get(3).map(String::as_str).unwrap_or("str"));
                let (stats, result) = apply_visual_qa(
                    input.as_ref(),
                    &self.images,
                    self.perception(&self.visual_qa),
                    &args[0],
                    &args[1],
                    &args[2],
                    dtype,
                );
                // Absorb before `?`: failed dispatches still made their calls.
                self.perception.absorb(&stats);
                Ok(self.register_result(step, result?, &[args[1].clone()]))
            }
            OperatorKind::TextQa => {
                expect_args(3)?;
                let input = self.step_input(step)?;
                let dtype = parse_result_dtype(args.get(3).map(String::as_str).unwrap_or("str"));
                let (stats, result) = apply_text_qa(
                    input.as_ref(),
                    self.perception(&self.text_qa),
                    &args[0],
                    &args[1],
                    &args[2],
                    dtype,
                );
                self.perception.absorb(&stats);
                Ok(self.register_result(step, result?, &[args[1].clone()]))
            }
            OperatorKind::ImageSelect => {
                expect_args(2)?;
                let input = self.step_input(step)?;
                let (stats, result) = apply_image_select(
                    input.as_ref(),
                    &self.images,
                    self.perception(&self.image_select),
                    &args[0],
                    &args[1],
                );
                self.perception.absorb(&stats);
                Ok(self.register_result(step, result?, &[]))
            }
            OperatorKind::PythonUdf => {
                expect_args(2)?;
                let input = self.step_input(step)?;
                let (stats, result) = apply_python_udf(
                    input.as_ref(),
                    &self.codegen,
                    &args[0],
                    &args[1],
                    self.cache.as_deref(),
                );
                self.perception.absorb(&stats);
                Ok(self.register_result(step, result?, &[args[1].clone()]))
            }
            OperatorKind::Plot => {
                expect_args(3)?;
                let input = self.step_input(step)?;
                let plot = apply_plot(input.as_ref(), &args[0], &args[1], &args[2])?;
                Ok(StepOutcome::Plot { plot, table: input })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesura_data::{generate_artwork, ArtworkConfig};
    use caesura_llm::LogicalStep;

    fn executor() -> Executor {
        let data = generate_artwork(&ArtworkConfig::small());
        Executor::new(data.lake.catalog().clone(), data.lake.images().clone())
    }

    fn step(
        number: usize,
        description: &str,
        inputs: Vec<&str>,
        output: &str,
        new: Vec<&str>,
    ) -> LogicalStep {
        LogicalStep::new(
            number,
            description,
            inputs.into_iter().map(String::from).collect(),
            output,
            new.into_iter().map(String::from).collect(),
        )
    }

    fn decision(op: OperatorKind, args: Vec<&str>) -> OperatorDecision {
        OperatorDecision {
            step_number: 1,
            reasoning: String::new(),
            operator: op,
            arguments: args.into_iter().map(String::from).collect(),
        }
    }

    #[test]
    fn figure4_query2_pipeline_executes_end_to_end() {
        let mut executor = executor();
        // Step 1: join.
        let outcome = executor
            .execute(
                &step(1, "Join", vec!["paintings_metadata", "painting_images"], "joined_table", vec![]),
                &decision(
                    OperatorKind::SqlJoin,
                    vec!["SELECT * FROM paintings_metadata JOIN painting_images ON paintings_metadata.img_path = painting_images.img_path"],
                ),
            )
            .unwrap();
        assert!(matches!(outcome, StepOutcome::Table { ref name, .. } if name == "joined_table"));

        // Step 2: VisualQA sword count.
        let outcome = executor
            .execute(
                &step(
                    2,
                    "Extract swords",
                    vec!["joined_table"],
                    "joined_table",
                    vec!["num_swords"],
                ),
                &decision(
                    OperatorKind::VisualQa,
                    vec![
                        "image",
                        "num_swords",
                        "How many swords are depicted?",
                        "int",
                    ],
                ),
            )
            .unwrap();
        assert!(outcome.observation().contains("num_swords"));

        // Step 3: Python century.
        executor
            .execute(
                &step(
                    3,
                    "Extract century",
                    vec!["joined_table"],
                    "joined_table",
                    vec!["century"],
                ),
                &decision(
                    OperatorKind::PythonUdf,
                    vec![
                        "Extract the century from the dates in the 'inception' column",
                        "century",
                    ],
                ),
            )
            .unwrap();

        // Step 4: aggregation.
        executor
            .execute(
                &step(4, "Aggregate", vec!["joined_table"], "result_table", vec!["max_num_swords"]),
                &decision(
                    OperatorKind::SqlAggregation,
                    vec!["SELECT century, MAX(num_swords) AS max_num_swords FROM joined_table GROUP BY century"],
                ),
            )
            .unwrap();

        // Step 5: plot.
        let outcome = executor
            .execute(
                &step(5, "Plot", vec!["result_table"], "plot", vec![]),
                &decision(OperatorKind::Plot, vec!["bar", "century", "max_num_swords"]),
            )
            .unwrap();
        match outcome {
            StepOutcome::Plot { plot, table } => {
                assert!(!plot.points.is_empty());
                assert!(table.schema().contains("max_num_swords"));
            }
            other => panic!("expected a plot outcome, got: {other:?}"),
        }
    }

    #[test]
    fn selection_accepts_bare_conditions_and_observes_row_counts() {
        let mut executor = executor();
        let outcome = executor
            .execute(
                &step(1, "Select", vec!["paintings_metadata"], "filtered", vec![]),
                &decision(OperatorKind::SqlSelection, vec!["movement = 'Baroque'"]),
            )
            .unwrap();
        match outcome {
            StepOutcome::Table { name, num_rows, .. } => {
                assert_eq!(name, "filtered");
                assert!(num_rows < 40);
            }
            other => panic!("expected a table outcome, got: {other:?}"),
        }
    }

    #[test]
    fn missing_tables_and_bad_arguments_produce_descriptive_errors() {
        let mut executor = executor();
        let err = executor
            .execute(
                &step(1, "Select", vec!["nonexistent_table"], "x", vec![]),
                &decision(OperatorKind::SqlSelection, vec!["a = 1"]),
            )
            .unwrap_err();
        assert!(err.to_string().contains("nonexistent_table"));

        let err = executor
            .execute(
                &step(1, "Plot", vec!["paintings_metadata"], "plot", vec![]),
                &decision(OperatorKind::Plot, vec!["bar"]),
            )
            .unwrap_err();
        assert!(err.to_string().contains("argument"));

        let err = executor
            .execute(
                &step(1, "VQA", vec!["paintings_metadata"], "x", vec!["n"]),
                &decision(
                    OperatorKind::VisualQa,
                    vec!["title", "n", "How many swords are depicted?", "int"],
                ),
            )
            .unwrap_err();
        assert!(err.to_string().contains("IMAGE"));
    }

    /// What the plan cache's admission rule rests on: a step whose execution
    /// fails registers nothing, so the decision that then succeeds runs in
    /// exactly the state a replay of the successful decisions rebuilds.
    #[test]
    fn a_failed_step_of_any_operator_leaves_the_executor_state_untouched() {
        let mut executor = executor();
        executor
            .execute(
                &step(1, "Join", vec!["paintings_metadata", "painting_images"], "joined_table", vec![]),
                &decision(
                    OperatorKind::SqlJoin,
                    vec!["SELECT * FROM paintings_metadata JOIN painting_images ON paintings_metadata.img_path = painting_images.img_path"],
                ),
            )
            .unwrap();
        // Tables and images by address: equal snapshots share every `Arc`.
        let snapshot = |executor: &Executor| {
            let tables: Vec<_> = executor.intermediate().tables().map(Arc::as_ptr).collect();
            let image = |n| executor.images.get(&format!("img/{n}.png"));
            let images: Vec<_> = (1..=executor.images.len())
                .map(|n| image(n).map(|image| image as *const _))
                .collect();
            (tables, executor.last_output.clone(), images)
        };
        let before = snapshot(&executor);
        assert_eq!(before.0.len(), 1);
        assert!(!before.2.is_empty() && before.2.iter().all(Option::is_some));

        for &operator in OperatorKind::all() {
            // Each overwrites `joined_table` if it gets that far. The first of
            // a pair fails before any model is asked, the second after.
            let failing: Vec<Vec<&str>> = match operator {
                OperatorKind::SqlJoin | OperatorKind::SqlAggregation | OperatorKind::Sql => {
                    vec![
                        vec!["SELECT * FROM no_such_table"],
                        vec!["SELECT no_such_column FROM joined_table"],
                    ]
                }
                OperatorKind::SqlSelection => {
                    vec![vec!["no_such_column = 1"], vec!["SELECT FROM"], vec![]]
                }
                OperatorKind::VisualQa => vec![
                    vec!["title", "n", "How many swords are depicted?", "int"],
                    vec!["image", "n", "Please transcribe the signature", "str"],
                ],
                OperatorKind::TextQa => vec![
                    vec!["title", "n", "Who won?", "str"],
                    vec!["no_such_column", "n", "Who won?", "str"],
                ],
                OperatorKind::ImageSelect => {
                    vec![vec!["title", "a horse"], vec!["no_such_column", "a horse"]]
                }
                OperatorKind::PythonUdf => vec![
                    vec!["Summon the spirit of the painter", "spirit"],
                    // Compiles, then cannot add a column the table already has.
                    vec![
                        "Extract the century from the dates in the 'inception' column",
                        "title",
                    ],
                ],
                OperatorKind::Plot => vec![
                    vec!["bar", "no_such_column", "title"],
                    vec!["hologram", "title", "inception"],
                ],
            };
            for arguments in failing {
                let attempt = executor.execute(
                    &step(2, "Fail", vec!["joined_table"], "joined_table", vec!["n"]),
                    &decision(operator, arguments.clone()),
                );
                assert!(attempt.is_err(), "{operator:?} {arguments:?} should fail");
                assert_eq!(snapshot(&executor), before, "{operator:?} {arguments:?}");
            }
        }
        // The perception failure above did reach the model.
        assert!(executor.perception_stats().unique_requests > 0);
    }

    mod recycler {
        use super::*;
        use caesura_data::{generate_rotowire, DataLake, RotowireConfig};

        const JOIN: &str = "SELECT * FROM paintings_metadata JOIN painting_images \
                            ON paintings_metadata.img_path = painting_images.img_path";

        fn artwork() -> DataLake {
            generate_artwork(&ArtworkConfig::small()).lake
        }

        fn over(lake: &DataLake, recycler: &Arc<StepRecycler>) -> Executor {
            Executor::new(lake.catalog().clone(), lake.images().clone())
                .with_step_recycler(Arc::clone(recycler))
        }

        /// The step's outcome, its registered table and whether it was
        /// recycled.
        fn run(
            executor: &mut Executor,
            step: &LogicalStep,
            decision: &OperatorDecision,
        ) -> (StepOutcome, Arc<Table>, bool) {
            let (outcome, recycled) = executor.execute_recycling(step, decision).unwrap();
            let table = Arc::clone(executor.last_table().unwrap());
            (outcome, table, recycled)
        }

        fn join(output: &str, new_columns: Vec<&str>) -> (LogicalStep, OperatorDecision) {
            let inputs = vec!["paintings_metadata", "painting_images"];
            (
                step(1, "Join", inputs, output, new_columns),
                decision(OperatorKind::SqlJoin, vec![JOIN]),
            )
        }

        #[test]
        fn a_failed_step_files_nothing_and_does_not_extend_the_prefix() {
            let (lake, recycler) = (artwork(), Arc::new(StepRecycler::new(16)));
            let (join_step, join) = join("joined_table", vec![]);
            let count_step = step(2, "Count", vec!["joined_table"], "result_table", vec!["n"]);
            let count = decision(
                OperatorKind::SqlAggregation,
                vec!["SELECT COUNT(*) AS n FROM joined_table"],
            );
            let failing = decision(
                OperatorKind::SqlAggregation,
                vec!["SELECT no_such_column FROM joined_table"],
            );

            let mut first = over(&lake, &recycler);
            let (_, joined, _) = run(&mut first, &join_step, &join);
            assert!(first.execute(&count_step, &failing).is_err());
            assert_eq!(first.prefix.len(), 1);
            assert_eq!(recycler.results.len(), 1, "only the join is filed");
            let (counted, counts, recycled) = run(&mut first, &count_step, &count);
            assert!(!recycled);

            // An executor that never met the failure shares both prefixes.
            let mut second = over(&lake, &recycler);
            let (_, table, recycled) = run(&mut second, &join_step, &join);
            assert!(recycled && Arc::ptr_eq(&table, &joined));
            let (outcome, table, recycled) = run(&mut second, &count_step, &count);
            assert!(recycled && Arc::ptr_eq(&table, &counts));
            assert_eq!(outcome.observation(), counted.observation());
            let stats = recycler.stats();
            assert_eq!((stats.hits, stats.insertions), (2, 2));
        }

        #[test]
        fn selections_of_different_teams_after_one_join_do_not_share_a_result() {
            let lake = generate_rotowire(&RotowireConfig::small()).lake;
            let recycler = Arc::new(StepRecycler::new(16));
            let join_step = step(1, "Join", vec!["teams", "team_to_games"], "joined", vec![]);
            let join = decision(
                OperatorKind::SqlJoin,
                vec!["SELECT * FROM teams JOIN team_to_games ON teams.name = team_to_games.name"],
            );
            let select_step = step(2, "Select", vec!["joined"], "filtered", vec![]);
            let select = |team: &str| {
                let condition = format!("teams.name = '{team}'");
                decision(OperatorKind::SqlSelection, vec![condition.as_str()])
            };
            let selected = |team: &str| {
                let mut executor = over(&lake, &recycler);
                run(&mut executor, &join_step, &join);
                run(&mut executor, &select_step, &select(team))
            };
            let (_, heat, _) = selected("Heat");
            let (_, bulls, recycled) = selected("Bulls");
            assert!(!recycled);
            assert!(heat.num_rows() > 0 && bulls.num_rows() > 0);
            assert_ne!(heat.as_ref(), bulls.as_ref());
            let (_, again, recycled) = selected("Heat");
            assert!(recycled && Arc::ptr_eq(&again, &heat));
        }

        #[test]
        fn a_step_with_another_output_name_or_new_columns_does_not_share_a_result() {
            let (lake, recycler) = (artwork(), Arc::new(StepRecycler::new(16)));
            let joined = |output: &str, new_columns: Vec<&str>| {
                let (step, decision) = join(output, new_columns);
                run(&mut over(&lake, &recycler), &step, &decision)
            };
            let (_, first, _) = joined("joined_table", vec![]);
            let (_, renamed, recycled) = joined("other_table", vec![]);
            assert!(!recycled);
            assert_eq!(renamed.name(), "other_table");
            let (noted, _, recycled) = joined("joined_table", vec!["title"]);
            assert!(!recycled);
            assert!(noted.observation().contains("New column 'title'"));
            let (_, table, recycled) = joined("joined_table", vec![]);
            assert!(recycled && Arc::ptr_eq(&table, &first));
        }

        #[test]
        fn at_capacity_the_least_recently_used_result_goes() {
            // Two results: one shard, so the bound is exact LRU.
            let (lake, recycler) = (artwork(), Arc::new(StepRecycler::new(2)));
            let count = |column: &str| {
                let step = step(1, "Count", vec!["paintings_metadata"], "n", vec![]);
                let sql = format!("SELECT COUNT({column}) AS n FROM paintings_metadata");
                (
                    step,
                    decision(OperatorKind::SqlAggregation, vec![sql.as_str()]),
                )
            };
            let recycled = |column: &str| {
                let (step, decision) = count(column);
                run(&mut over(&lake, &recycler), &step, &decision).2
            };
            assert!(!recycled("title") && !recycled("inception"));
            assert!(recycled("title"), "refreshes 'title'");
            assert!(!recycled("movement"), "evicts 'inception'");
            assert_eq!(recycler.stats().evictions, 1);
            assert!(recycled("title") && recycled("movement"));
            assert!(!recycled("inception"));
        }
    }
}
