//! A mapping prompt carries only what its step can use — and that changes
//! nothing the planner decides.
//!
//! Every suite query runs through a real session; its trace is then walked
//! event by event beside an independent executor holding the same state. At
//! each mapping prompt the walk rebuilds the prompt both ways — scoped (the
//! production builder) and full (a copy of the builder it replaced: whole
//! catalog, every intermediate table, all nine operators, every relevant
//! column, every earlier observation) — asks the simulated model both, and
//! executes the full prompt's decision. So the two builders are compared
//! step by step from the same executor state, retries and replans included,
//! and the final outputs of the two flows are compared at the end.

use caesura::core::{
    lexical_relevant_columns, Caesura, CaesuraConfig, Executor, Phase, QueryOutput, QueryRun,
    StepOutcome,
};
use caesura::data::{
    generate_artwork, generate_fieldwork, generate_rotowire, ArtworkConfig, DataLake,
    FieldworkConfig, RotowireConfig,
};
use caesura::engine::{Catalog, DataType, Table};
use caesura::eval::{
    benchmark_queries, fieldwork_queries, BenchmarkQuery, Dataset, EvaluationConfig, Tier,
};
use caesura::llm::prompt::MAPPING_MARKER;
use caesura::llm::{
    ChatMessage, Conversation, LlmClient, LogicalPlan, LogicalStep, MappingRequest,
    OperatorDecision, PlanCacheConfig, PromptBuilder, PromptContext, RelevantColumn, SimulatedLlm,
    StepObservation,
};
use caesura::modal::OperatorKind;
use std::sync::Arc;

/// Total prompt tokens of the 48 paper queries at default lake sizes (the
/// full-catalog builder spent 135,970).
const PAPER_PROMPT_TOKENS: usize = 105_381;
/// Total prompt tokens of the 28 clean fieldwork queries — the suite the
/// benchmark's `blocked_serving` workload runs (the full-catalog builder
/// spent 100,488).
const FIELDWORK_CLEAN_PROMPT_TOKENS: usize = 77_219;

/// A suite's lakes, one session per lake, and its queries with the index of
/// the lake each runs against.
struct Suite {
    lakes: Vec<DataLake>,
    sessions: Vec<Caesura>,
    queries: Vec<(BenchmarkQuery, usize)>,
}

impl Suite {
    fn new(lakes: Vec<DataLake>, queries: Vec<(BenchmarkQuery, usize)>) -> Suite {
        // Plan cache and disk tier pinned off: a replayed plan sends no
        // prompts, so no `CAESURA_*` CI row may change what is counted here.
        let config = CaesuraConfig {
            plan_cache: Some(PlanCacheConfig::off()),
            persist: None,
            ..CaesuraConfig::default()
        };
        let llm: Arc<dyn LlmClient> = Arc::new(SimulatedLlm::gpt4());
        let sessions = lakes
            .iter()
            .map(|lake| Caesura::with_config(lake.clone(), Arc::clone(&llm), config.clone()))
            .collect();
        Suite {
            lakes,
            sessions,
            queries,
        }
    }

    /// The 48 paper queries over the default artwork and rotowire lakes.
    fn paper() -> Suite {
        let queries = benchmark_queries()
            .into_iter()
            .map(|query| {
                let lake = usize::from(query.dataset == Dataset::Rotowire);
                (query, lake)
            })
            .collect();
        Suite::new(
            vec![
                generate_artwork(&ArtworkConfig::default()).lake,
                generate_rotowire(&RotowireConfig::default()).lake,
            ],
            queries,
        )
    }

    /// The 42 fieldwork queries: the clean lake, and its corrupted variant
    /// for the queries flagged so.
    fn fieldwork() -> Suite {
        let queries = fieldwork_queries()
            .into_iter()
            .map(|query| {
                let lake = usize::from(query.corrupted);
                (query, lake)
            })
            .collect();
        Suite::new(
            vec![
                generate_fieldwork(&FieldworkConfig::default()).lake,
                generate_fieldwork(&EvaluationConfig::default().corrupted_fieldwork()).lake,
            ],
            queries,
        )
    }

    fn run(&self, index: usize) -> QueryRun {
        let (query, lake) = &self.queries[index];
        self.sessions[*lake].run(query.text)
    }
}

/// The mapping-prompt builder this PR replaced, kept as the oracle: the
/// whole catalog and every intermediate table in full, all nine operators,
/// every relevant column, every earlier observation.
fn full_mapping_prompt(
    catalog: &Catalog,
    intermediate: &Catalog,
    query: &str,
    step: &LogicalStep,
    relevant_columns: &[RelevantColumn],
    observations: &[String],
    error_context: Option<&str>,
) -> Conversation {
    let mut system = String::new();
    system.push_str(&format!("You are CAESURA, and {MAPPING_MARKER}.\n"));
    system.push_str("The database contains the following tables:\n");
    system.push_str(&catalog.prompt_summary());
    if !intermediate.is_empty() {
        system.push_str("\nThe intermediate tables produced by previous steps are:\n");
        system.push_str(&intermediate.prompt_summary());
    }
    system.push_str("\n\nYou can use the following operators:\n");
    system.push_str(&OperatorKind::prompt_catalog(true, true));
    system.push_str(
        "\n\nUse the following output format:\n\
         Step <i>: What to do in this step?\n\
         Reasoning: Reason about which operator should be used for this step. Take datatypes into account.\n\
         Operator: The operator to use, should be one of the operators listed above.\n\
         Arguments: The arguments to call the operator, separated by ';'. Should be (arg_1; ...; arg_n)\n",
    );

    let mut human = String::new();
    human.push_str("Map the steps one by one.\n");
    human.push_str(&format!("My request is: {query}\n"));
    if !relevant_columns.is_empty() {
        human.push_str("These columns are relevant:\n");
        for column in relevant_columns {
            human.push_str(&column.render());
            human.push('\n');
        }
    }
    if !observations.is_empty() {
        human.push_str("Previous observations:\n");
        for observation in observations {
            human.push_str(&format!("Observation: {observation}\n"));
        }
    }
    if let Some(error) = error_context {
        human.push_str(&format!(
            "Note: a previous attempt at this step failed. {error}\n"
        ));
    }
    human.push_str(&format!("Step {}: {}\n", step.number, step.description));
    if !step.inputs.is_empty() {
        human.push_str(&format!("Input: {}\n", step.inputs.join(", ")));
    }
    if !step.output.is_empty() {
        human.push_str(&format!("Output: {}\n", step.output));
    }
    if !step.new_columns.is_empty() {
        human.push_str(&format!("New Columns: {}\n", step.new_columns.join(", ")));
    }
    Conversation::new()
        .with(ChatMessage::system(system))
        .with(ChatMessage::human(human))
}

/// The catalog discovery handed the planner: the retrieved tables and the
/// foreign keys among them (mirrors `SessionCore::discover`).
fn discovered_catalog(lake: &DataLake, retrieved: &str) -> Catalog {
    let mut catalog = Catalog::new();
    for name in retrieved.split(", ") {
        catalog.register_shared(lake.catalog().table_shared(name).unwrap());
    }
    for fk in lake.catalog().foreign_keys() {
        if catalog.contains(&fk.from_table) && catalog.contains(&fk.to_table) {
            catalog.add_foreign_key(fk.clone());
        }
    }
    catalog
}

/// The lines of `text` after the line `from`, up to the next blank line.
fn section<'a>(text: &'a str, from: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|line| *line != from)
        .skip(1)
        .take_while(|line| !line.is_empty())
        .collect()
}

fn has_column_of(table: &Table, dtype: DataType) -> bool {
    table
        .schema()
        .fields()
        .iter()
        .any(|field| field.data_type == dtype)
}

/// The shape every scoped mapping prompt must have, given the catalogs it
/// was built from.
fn check_prompt_shape(
    id: &str,
    system: &str,
    human: &str,
    catalog: &Catalog,
    intermediate: &Catalog,
    step: &LogicalStep,
) {
    // Resolve the inputs as the executor does: intermediate tables first.
    let mut base_inputs: Vec<&Table> = Vec::new();
    let mut intermediate_inputs: Vec<&Table> = Vec::new();
    let mut all_resolved = !step.inputs.is_empty();
    for name in &step.inputs {
        if let Ok(table) = intermediate.table(name) {
            intermediate_inputs.push(table);
        } else if let Ok(table) = catalog.table(name) {
            base_inputs.push(table);
        } else {
            all_resolved = false;
        }
    }
    intermediate_inputs.sort_by_key(|table| table.name());
    intermediate_inputs.dedup_by_key(|table| table.name());

    // Tables: each input in full exactly once, every other base table as its
    // brief line, no other intermediate table.
    const INTERMEDIATE: &str = "The intermediate tables produced by previous steps are:";
    let mut base_lines = section(system, "The database contains the following tables:");
    base_lines.truncate(
        base_lines
            .iter()
            .position(|line| *line == INTERMEDIATE)
            .unwrap_or(base_lines.len()),
    );
    let expected_base: Vec<String> = catalog
        .tables()
        .map(|table| {
            if base_inputs.iter().any(|input| input.name() == table.name()) {
                catalog.prompt_line(table)
            } else {
                format!(" - {}", table.prompt_summary_brief())
            }
        })
        .collect();
    assert_eq!(base_lines, expected_base, "{id} step {}", step.number);
    let intermediate_lines = section(system, INTERMEDIATE);
    let expected_intermediate: Vec<String> = intermediate_inputs
        .iter()
        .map(|table| intermediate.prompt_line(table))
        .collect();
    assert_eq!(
        intermediate_lines, expected_intermediate,
        "{id} step {}",
        step.number
    );
    // No column list is rendered outside those lines: observations do not
    // restate a table's schema.
    let whole = format!("{system}\n{human}");
    assert_eq!(
        whole.matches("columns=[").count() + whole.matches("columns [").count(),
        base_lines.len() + intermediate_lines.len(),
        "{id} step {}: a column list is rendered twice",
        step.number
    );

    // Operators: nothing that needs a modality the inputs lack, and the
    // perception operators whenever an input has their modality.
    let offered: Vec<OperatorKind> = section(system, "You can use the following operators:")
        .iter()
        .map(|line| {
            let (name, _) = line.split_once(": ").expect("an operator line");
            OperatorKind::from_name(name).expect("a known operator")
        })
        .collect();
    let inputs_hold = |dtype| {
        base_inputs
            .iter()
            .chain(&intermediate_inputs)
            .any(|table| has_column_of(table, dtype))
    };
    for operator in OperatorKind::all() {
        let expected = match operator.required_modality() {
            Some(dtype) => !all_resolved || inputs_hold(dtype),
            None => true,
        };
        assert_eq!(
            offered.contains(operator),
            expected,
            "{id} step {}: {operator:?}",
            step.number
        );
    }
}

/// What one walk saw, so a suite can assert it exercised what it claims.
#[derive(Default)]
struct Seen {
    mapping_prompts: usize,
    retries: usize,
    replans: usize,
    compared_outputs: usize,
}

/// Walk one run's trace beside an independent executor (see the module
/// docs). Panics on the first divergence.
fn walk(id: &str, query: &str, lake: &DataLake, run: &QueryRun, seen: &mut Seen) {
    let llm = SimulatedLlm::gpt4();
    let builder = PromptBuilder::default();
    let relevant_columns = lexical_relevant_columns(lake, query, 3);
    let new_executor = || Executor::new(lake.catalog().clone(), lake.images().clone());

    let mut catalog = Catalog::new();
    let mut plan: Option<LogicalPlan> = None;
    let mut executor = new_executor();
    // The two flows' memories: every observation, and the latest notes per
    // output table.
    let mut full_observations: Vec<String> = Vec::new();
    let mut observations: Vec<StepObservation> = Vec::new();
    let mut pending: Option<(LogicalStep, String)> = None;
    let mut failed_step: Option<usize> = None;
    let mut last: Option<Result<StepOutcome, String>> = None;

    for event in run.trace.events() {
        match (event.phase, event.label.as_str()) {
            (Phase::Discovery, "retrieved") => {
                catalog = discovered_catalog(lake, &event.detail);
            }
            (Phase::Planning, "plan") => {
                seen.replans += usize::from(plan.is_some());
                plan = Some(LogicalPlan::parse(&event.detail).unwrap());
                executor = new_executor();
                full_observations.clear();
                observations.clear();
                failed_step = None;
                last = None;
            }
            (Phase::Mapping, "prompt") => {
                let (system, human) = event
                    .detail
                    .strip_prefix("System: ")
                    .and_then(|rest| rest.split_once("\n\nHuman: "))
                    .expect("a rendered two-message prompt");
                let sent = Conversation::new()
                    .with(ChatMessage::system(system))
                    .with(ChatMessage::human(human));
                let context = PromptContext::parse(&sent);
                let number = context.step.expect("a step to map").number;
                let step = plan
                    .as_ref()
                    .and_then(|plan| plan.steps.iter().find(|step| step.number == number))
                    .unwrap_or_else(|| panic!("{id}: step {number} is not in the plan"))
                    .clone();

                // A retry — and only a retry — carries the `Note:` line.
                let note = human
                    .lines()
                    .find_map(|l| l.strip_prefix("Note: a previous attempt at this step failed. "));
                assert_eq!(
                    note.is_some(),
                    failed_step == Some(number),
                    "{id} step {number}: retry note"
                );
                seen.retries += usize::from(note.is_some());

                // Same state in, same prompt out: the walk is in step with
                // the session.
                let scoped = builder.mapping_prompt(&MappingRequest {
                    catalog: &catalog,
                    intermediate: executor.intermediate(),
                    query,
                    step: &step,
                    relevant_columns: &relevant_columns,
                    observations: &observations,
                    error_context: note,
                });
                assert_eq!(scoped.render(), event.detail, "{id} step {number}");
                check_prompt_shape(id, system, human, &catalog, executor.intermediate(), &step);

                let full = full_mapping_prompt(
                    &catalog,
                    executor.intermediate(),
                    query,
                    &step,
                    &relevant_columns,
                    &full_observations,
                    note,
                );
                assert!(
                    scoped.approx_tokens() <= full.approx_tokens(),
                    "{id} step {number}"
                );
                let response = llm.complete(&full).unwrap();
                assert_eq!(
                    llm.complete(&scoped).unwrap(),
                    response,
                    "{id} step {number}: the scoped prompt changed the model's answer"
                );
                seen.mapping_prompts += 1;
                pending = Some((step, response));
            }
            (Phase::Mapping, "response") => {
                let (_, response) = pending.as_ref().expect("a prompt before its response");
                assert_eq!(&event.detail, response, "{id}");
            }
            (Phase::Mapping, "decision") => {
                // Execute what the *full* prompt decided.
                let (step, response) = pending.take().expect("a response before its decision");
                let decision = OperatorDecision::parse(&response).unwrap();
                let outcome = executor.execute(&step, &decision);
                match &outcome {
                    Ok(outcome) => {
                        full_observations.push(outcome.observation());
                        if let StepOutcome::Table {
                            name, observation, ..
                        } = outcome
                        {
                            observations.retain(|earlier| earlier.table != *name);
                            if !observation.new_columns.is_empty() {
                                observations.push(StepObservation {
                                    table: name.clone(),
                                    new_columns: observation.new_columns.clone(),
                                });
                            }
                        }
                        failed_step = None;
                    }
                    Err(_) => failed_step = Some(step.number),
                }
                last = Some(outcome.map_err(|error| error.to_string()));
            }
            (Phase::Execution, "observation") => match &last {
                Some(Ok(outcome)) => assert_eq!(event.detail, outcome.observation(), "{id}"),
                other => panic!("{id}: the session observed, the walk got {other:?}"),
            },
            (Phase::Execution, "error") => match &last {
                Some(Err(error)) => assert_eq!(&event.detail, error, "{id}"),
                other => panic!("{id}: the session failed, the walk got {other:?}"),
            },
            _ => {}
        }
    }

    // The full-prompt flow's answer is the session's answer.
    if let Ok(output) = &run.output {
        let expected = match last.expect("a successful run executed a step").unwrap() {
            StepOutcome::Plot { plot, table } => QueryOutput::Plot {
                plot,
                table: table.as_ref().clone(),
            },
            StepOutcome::Table { name, .. } => QueryOutput::from_table(
                executor
                    .intermediate()
                    .table(&name)
                    .unwrap()
                    .as_ref()
                    .clone(),
            ),
        };
        assert_eq!(output, &expected, "{id}: final output");
        seen.compared_outputs += 1;
    }
}

fn walk_suite(suite: &Suite) -> Seen {
    let mut seen = Seen::default();
    for (index, (query, lake)) in suite.queries.iter().enumerate() {
        let run = suite.run(index);
        walk(query.id, query.text, &suite.lakes[*lake], &run, &mut seen);
    }
    seen
}

#[test]
fn scoped_and_full_prompts_get_the_same_decisions_on_the_paper_suite() {
    let suite = Suite::paper();
    assert_eq!(suite.queries.len(), 48);
    let seen = walk_suite(&suite);
    assert!(seen.mapping_prompts >= 150, "{}", seen.mapping_prompts);
    assert!(seen.retries > 0, "the suite exercises retry prompts");
    assert!(seen.compared_outputs >= 40, "{}", seen.compared_outputs);
}

#[test]
fn scoped_and_full_prompts_get_the_same_decisions_on_the_fieldwork_suite() {
    let suite = Suite::fieldwork();
    assert_eq!(suite.queries.len(), 42);
    let seen = walk_suite(&suite);
    assert!(seen.mapping_prompts >= 150, "{}", seen.mapping_prompts);
    assert!(seen.retries > 0, "the suite exercises retry prompts");
    assert!(seen.replans > 0, "the suite exercises replans");
    assert!(seen.compared_outputs >= 28, "{}", seen.compared_outputs);
}

#[test]
fn prompt_token_totals_are_pinned() {
    let total = |suite: &Suite, keep: &dyn Fn(&BenchmarkQuery) -> bool| -> usize {
        (0..suite.queries.len())
            .filter(|index| keep(&suite.queries[*index].0))
            .map(|index| suite.run(index).trace.prompt_tokens())
            .sum()
    };
    // Exact, because the count repeats exactly: a prompt that grows — or
    // shrinks — moves a billed number and should do so on purpose, by
    // editing the constant.
    assert_eq!(
        total(&Suite::paper(), &|_| true),
        PAPER_PROMPT_TOKENS,
        "prompt tokens of the 48 paper queries"
    );
    assert_eq!(
        total(&Suite::fieldwork(), &|query| query.tier == Tier::Clean),
        FIELDWORK_CLEAN_PROMPT_TOKENS,
        "prompt tokens of the 28 clean fieldwork queries"
    );
}
