//! The simulated language model: a deterministic, prompt-driven stand-in for
//! GPT-4 / ChatGPT-3.5.
//!
//! [`SimulatedLlm`] implements [`LlmClient`]: it receives exactly the same
//! prompts a remote model would receive, parses them (see
//! [`PromptContext`]), "reasons" about the query with the intent analyzer and
//! plan synthesizer, and answers in the textual output format the prompt asks
//! for. A [`ModelProfile`] controls how often calibrated mistakes are injected
//! so that the relative behaviour of GPT-4 vs ChatGPT-3.5 reported in the
//! paper (Tables 1 and 2) is reproduced.

use crate::chat::Conversation;
use crate::client::LlmClient;
use crate::context::{PromptContext, PromptKind};
use crate::error::{LlmError, LlmResult};
use crate::intent::{analyze, singular};
use crate::mapping::decide;
use crate::plan::{ErrorAnalysis, LogicalPlan, OperatorDecision};
use crate::profile::{ErrorInjector, MappingCorruption, ModelProfile, PlanCorruption};
use crate::synthesis::synthesize;
use caesura_modal::OperatorKind;

/// The deterministic simulated language model.
#[derive(Debug, Clone)]
pub struct SimulatedLlm {
    injector: ErrorInjector,
    name: String,
}

impl SimulatedLlm {
    /// Create a simulated model with the given profile and run seed.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        SimulatedLlm {
            injector: ErrorInjector::new(profile, seed),
            name: profile.name().to_string(),
        }
    }

    /// A GPT-4-like model with the default seed.
    pub fn gpt4() -> Self {
        SimulatedLlm::new(ModelProfile::Gpt4, 42)
    }

    /// A ChatGPT-3.5-like model with the default seed.
    pub fn chatgpt35() -> Self {
        SimulatedLlm::new(ModelProfile::ChatGpt35, 42)
    }

    fn respond_planning(&self, context: &PromptContext) -> String {
        let intent = analyze(&context.query, &context.tables);
        let multimodal = intent.is_multimodal();
        let mut plan = synthesize(&intent, &context.tables);
        if is_fieldwork(context) {
            // The fieldwork benchmark grades *expected* outcomes per query, so
            // its mistakes are scripted by adversarial query markers instead of
            // drawn from the calibrated profile rates.
            if let Some(corruption) = fieldwork_plan_corruption(&context.query) {
                plan = corrupt_plan(plan, corruption);
            }
        } else if let Some(corruption) = self.injector.plan_corruption(&context.query, multimodal) {
            plan = corrupt_plan(plan, corruption);
        }
        plan.render()
    }

    fn respond_mapping(&self, context: &PromptContext) -> LlmResult<String> {
        let step = context
            .step
            .clone()
            .ok_or_else(|| LlmError::MalformedPrompt {
                message: "the mapping prompt does not contain a step to map".into(),
            })?;
        let mut decision = decide(&step, context);
        let multimodal_step = decision.operator.is_multimodal();
        if is_fieldwork(context) {
            decision = fieldwork_mapping_corruption(&context.query, &step, decision);
        } else if let Some(corruption) =
            self.injector
                .mapping_corruption(&context.query, step.number, multimodal_step)
        {
            let retrying = context.retry_note.is_some();
            decision = corrupt_decision(decision, corruption, retrying);
        }
        Ok(decision.render(&step.description))
    }

    fn respond_discovery(&self, context: &PromptContext) -> String {
        let query = context.query.to_lowercase();
        let query_words: Vec<String> = query
            .split(|c: char| !c.is_alphanumeric())
            .filter(|w| !w.is_empty())
            .map(singular)
            .collect();
        let needs_dates = query.contains("century")
            || query.contains("year")
            || query.contains("earliest")
            || query.contains("latest");
        let needs_images = query.contains("depict")
            || query.contains("shown")
            || query.contains("image")
            || query.contains("photo");
        let needs_text = query.contains("points")
            || query.contains("score")
            || query.contains("win")
            || query.contains("won")
            || query.contains("lose")
            || query.contains("lost")
            || query.contains("rebound")
            || query.contains("assist")
            || query.contains("specimen")
            || query.contains("reading")
            || query.contains("sample")
            || query.contains("collected")
            || query.contains("logged")
            || query.contains("stored");
        let grouped_by_entity = query.contains("each team")
            || query.contains("every team")
            || query.contains("each player")
            || query.contains("each artist")
            || query.contains("each station")
            || query.contains("every station");

        let mut lines = Vec::new();
        for table in &context.tables {
            for column in &table.columns {
                let name = column.name.to_lowercase();
                let mentioned = query_words.iter().any(|w| *w == singular(&name));
                let date_like = needs_dates
                    && (name.contains("inception")
                        || name.contains("date")
                        || name.contains("year")
                        || name.contains("founded"));
                let modality = (needs_images && column.dtype == "IMAGE")
                    || (needs_text && column.dtype == "TEXT");
                let join_key = grouped_by_entity && (name == "name" || name == "game_id");
                if mentioned || date_like || modality || join_key {
                    lines.push(format!("Relevant: {}.{}", table.name, column.name));
                }
            }
        }
        if lines.is_empty() {
            lines.push("Relevant: none".to_string());
        }
        lines.join("\n")
    }

    fn respond_error_analysis(&self, context: &PromptContext) -> String {
        let error = context.error.clone().unwrap_or_default();
        let message = error.message.to_lowercase();
        let mut analysis = ErrorAnalysis {
            causes: format!("The execution failed with: {}", error.message),
            fix: String::new(),
            plan_flawed: false,
            alternative_plan: false,
            different_tool: false,
            update_arguments: false,
        };
        if message.contains("unknown table") {
            analysis.plan_flawed = true;
            analysis.alternative_plan = true;
            analysis.fix =
                "The plan references a table that does not exist; the plan must be rewritten using only existing tables.".into();
        } else if message.contains("unknown column")
            || message.contains("ambiguous column")
            || message.contains("not found")
            || message.contains("no such")
        {
            analysis.update_arguments = true;
            analysis.fix =
                "The operator referenced a column that does not exist in its input; the arguments should use one of the available columns.".into();
        } else if message.contains("image column")
            || message.contains("text column")
            || message.contains("cannot answer")
            || message.contains("no supported transformation")
        {
            analysis.different_tool = true;
            analysis.update_arguments = true;
            analysis.fix =
                "The chosen operator cannot process this input; a different operator (or different arguments) should be selected for the step.".into();
        } else if message.contains("cannot be combined")
            || message.contains("must appear in the group by")
            || message.contains("invalid aggregate")
        {
            analysis.update_arguments = true;
            analysis.fix = "The SQL arguments are invalid and should be corrected.".into();
        } else {
            analysis.update_arguments = true;
            analysis.fix = "Retry the step with corrected arguments.".into();
        }
        analysis.render()
    }
}

impl LlmClient for SimulatedLlm {
    fn complete(&self, conversation: &Conversation) -> LlmResult<String> {
        let context = PromptContext::parse(conversation);
        match context.kind {
            PromptKind::Planning => Ok(self.respond_planning(&context)),
            PromptKind::Mapping => self.respond_mapping(&context),
            PromptKind::Discovery => Ok(self.respond_discovery(&context)),
            PromptKind::ErrorAnalysis => Ok(self.respond_error_analysis(&context)),
            PromptKind::Unknown => Err(LlmError::ModelFailure {
                model: self.name.clone(),
                message: "the prompt does not belong to any CAESURA phase".into(),
            }),
        }
    }

    /// Serve a batch in one dispatch. The simulated model answers each
    /// prompt independently (its error injection keys on prompt content, not
    /// call order), so batching changes neither the answers nor their order.
    fn complete_batch(&self, conversations: &[Conversation]) -> Vec<LlmResult<String>> {
        conversations.iter().map(|c| self.complete(c)).collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Whether the prompt belongs to the fieldwork lake. The fieldwork benchmark
/// needs *deterministic* per-query outcomes (its adversarial tier grades
/// expected error categories), so the profile-rate injector is bypassed and
/// mistakes are scripted by query markers instead.
fn is_fieldwork(context: &PromptContext) -> bool {
    context.tables.iter().any(|t| t.name == "expedition_logs")
}

/// Scripted planning mistakes of the fieldwork adversarial tier.
///
/// * "photo archive" — the model misreads the photo column as relational
///   metadata (Data Misunderstanding: the VisualQA step becomes a title
///   lookup and TextQA steps are dropped).
/// * "catalog code" — the model hallucinates a column that exists in no table
///   (Impossible Actions).
fn fieldwork_plan_corruption(query: &str) -> Option<PlanCorruption> {
    let lower = query.to_lowercase();
    if lower.contains("photo archive") {
        Some(PlanCorruption::DataMisunderstanding)
    } else if lower.contains("catalog code") {
        Some(PlanCorruption::ImpossibleColumn)
    } else {
        None
    }
}

/// Scripted mapping mistakes of the fieldwork adversarial tier.
///
/// * "ledger" — the model answers the TextQA step with plain SQL (Wrong
///   Tool).
/// * "field guide" — the model asks the TextQA operator about a statistic
///   that no expedition log mentions (Wrong Arguments: every per-row answer
///   comes back NULL and the aggregate diverges from the reference).
fn fieldwork_mapping_corruption(
    query: &str,
    step: &crate::plan::LogicalStep,
    mut decision: OperatorDecision,
) -> OperatorDecision {
    let lower = query.to_lowercase();
    let report_step = step.description.to_lowercase().contains("'report' column");
    if lower.contains("ledger") && report_step {
        return corrupt_decision(decision, MappingCorruption::WrongTool, false);
    }
    if lower.contains("field guide") && report_step && decision.arguments.len() >= 3 {
        decision.arguments[2] = decision.arguments[2]
            .replace("specimens", "pebbles")
            .replace("readings", "pebbles")
            .replace("samples", "pebbles");
    }
    decision
}

/// Apply a plan-level corruption (the calibrated planning mistakes of Table 2).
fn corrupt_plan(mut plan: LogicalPlan, corruption: PlanCorruption) -> LogicalPlan {
    match corruption {
        PlanCorruption::DataMisunderstanding => {
            // Use metadata columns instead of looking at images / reading reports
            // (the dominant ChatGPT-3.5 mistake reported in §4.3).
            let mut steps = Vec::new();
            for mut step in plan.steps {
                let lower = step.description.to_lowercase();
                if lower.contains("'image' column") {
                    let entity = extract_entity(&lower).unwrap_or_else(|| "the subject".into());
                    let input = step
                        .inputs
                        .first()
                        .cloned()
                        .unwrap_or_else(|| "joined_table".to_string());
                    step.description = format!(
                        "Select only the rows of the '{input}' table where the 'title' column contains '{entity}'."
                    );
                    step.new_columns = Vec::new();
                    step.output = input.clone();
                    steps.push(step);
                } else if lower.contains("'report' column") {
                    // Drop the text extraction entirely: the model believes the
                    // relational tables already contain the statistic.
                    continue;
                } else {
                    steps.push(step);
                }
            }
            plan.steps = steps;
        }
        PlanCorruption::MissingJoin => {
            if let Some(pos) = plan
                .steps
                .iter()
                .position(|s| s.description.to_lowercase().starts_with("join"))
            {
                plan.steps.remove(pos);
            }
        }
        PlanCorruption::ImpossibleColumn => {
            // Reference a column that does not exist in any table.
            if let Some(step) = plan.steps.iter_mut().find(|s| {
                s.description.starts_with("Select only") || s.description.starts_with("Group the")
            }) {
                step.description = step
                    .description
                    .replacen('\'', "'nonexistent_", 2)
                    .replacen("'nonexistent_", "'", 1);
            } else if let Some(step) = plan.steps.first_mut() {
                step.description
                    .push_str(" Use the 'category_info' column for this.");
            }
        }
    }
    // Renumber after removals.
    for (i, step) in plan.steps.iter_mut().enumerate() {
        step.number = i + 1;
    }
    plan
}

fn extract_entity(lower_description: &str) -> Option<String> {
    let slice = |start: &str, end: &str| -> Option<String> {
        let pos = lower_description.find(start)? + start.len();
        let rest = &lower_description[pos..];
        rest.find(end).map(|stop| rest[..stop].trim().to_string())
    };
    slice("the number of ", " depicted").or_else(|| slice("whether ", " is depicted"))
}

/// Apply a mapping-level corruption (the Wrong Arguments / Wrong Tool mistakes
/// of Table 2). `retrying` is true when the prompt carries an error note from a
/// previous failed attempt; recoverable typos are not re-applied in that case.
fn corrupt_decision(
    decision: OperatorDecision,
    corruption: MappingCorruption,
    retrying: bool,
) -> OperatorDecision {
    match corruption {
        MappingCorruption::RecoverableTypo if retrying => decision,
        MappingCorruption::RecoverableTypo | MappingCorruption::WrongArguments => {
            corrupt_arguments(decision)
        }
        MappingCorruption::WrongTool => {
            let input = "result_table";
            OperatorDecision {
                step_number: decision.step_number,
                reasoning: "The information can probably be found in the existing columns, so plain SQL suffices.".into(),
                operator: OperatorKind::Sql,
                arguments: vec![format!("SELECT * FROM {input}")],
            }
        }
    }
}

fn corrupt_arguments(mut decision: OperatorDecision) -> OperatorDecision {
    match decision.operator {
        OperatorKind::VisualQa => {
            if decision.arguments.len() >= 3 {
                decision.arguments[2] = "How many objects are depicted?".to_string();
            }
        }
        OperatorKind::TextQa => {
            if decision.arguments.len() >= 3 {
                decision.arguments[2] = "How many goals did <name> kick?".to_string();
            }
        }
        OperatorKind::PythonUdf => {
            if let Some(first) = decision.arguments.first_mut() {
                *first = "Render the values as roman numerals".to_string();
            }
        }
        OperatorKind::Plot => {
            if decision.arguments.len() >= 3 {
                decision.arguments[2] = "missing_column".to_string();
            }
        }
        OperatorKind::SqlSelection => {
            if let Some(first) = decision.arguments.first_mut() {
                *first = format!("wrong_{first}");
            }
        }
        _ => {
            if let Some(first) = decision.arguments.first_mut() {
                *first = first.replacen("SELECT ", "SELECT missing_column, ", 1);
            }
        }
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::LogicalStep;
    use crate::prompt::{MappingRequest, PromptBuilder, RelevantColumn};
    use caesura_engine::{Catalog, DataType, ForeignKey, Schema, TableBuilder};

    fn artwork_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("title", DataType::Str),
            ("artist", DataType::Str),
            ("inception", DataType::Str),
            ("movement", DataType::Str),
            ("genre", DataType::Str),
            ("img_path", DataType::Str),
        ]);
        let mut b = TableBuilder::new("paintings_metadata", schema);
        b.push_values([
            "Madonna",
            "Giovanni Alberti",
            "1889",
            "Baroque",
            "religious art",
            "img/1.png",
        ])
        .unwrap();
        catalog.register(b.build());
        let schema = Schema::from_pairs(&[("img_path", DataType::Str), ("image", DataType::Image)]);
        catalog.register(TableBuilder::new("painting_images", schema).build());
        catalog.add_foreign_key(ForeignKey::new(
            "paintings_metadata",
            "img_path",
            "painting_images",
            "img_path",
        ));
        catalog
    }

    #[test]
    fn planning_round_trip_produces_a_parseable_multimodal_plan() {
        let llm = SimulatedLlm::gpt4();
        let builder = PromptBuilder::default();
        let prompt = builder.planning_prompt(
            &artwork_catalog(),
            "Plot the number of paintings depicting Madonna and Child for each century!",
            &[RelevantColumn {
                table: "paintings_metadata".into(),
                column: "inception".into(),
                examples: vec!["1889".into()],
            }],
        );
        let response = llm.complete(&prompt).unwrap();
        let plan = LogicalPlan::parse(&response).unwrap();
        assert!(plan.steps.len() >= 5);
        assert!(response.contains("Join"));
        assert!(response.contains("Plot"));
    }

    #[test]
    fn mapping_round_trip_produces_a_parseable_decision() {
        let llm = SimulatedLlm::gpt4();
        let builder = PromptBuilder::default();
        let step = LogicalStep::new(
            1,
            "Join the 'paintings_metadata' and 'painting_images' tables on the 'img_path' column to combine the two tables.",
            vec!["paintings_metadata".into(), "painting_images".into()],
            "joined_table",
            vec![],
        );
        let prompt = builder.mapping_prompt(&MappingRequest {
            catalog: &artwork_catalog(),
            intermediate: &Catalog::new(),
            query: "Plot the number of paintings depicting Madonna and Child for each century!",
            step: &step,
            relevant_columns: &[],
            observations: &[],
            error_context: None,
        });
        let response = llm.complete(&prompt).unwrap();
        let decision = OperatorDecision::parse(&response).unwrap();
        assert_eq!(decision.operator, OperatorKind::SqlJoin);
        assert!(decision.arguments[0].contains("JOIN painting_images"));
    }

    #[test]
    fn discovery_marks_inception_and_image_columns_for_the_figure1_query() {
        let llm = SimulatedLlm::gpt4();
        let builder = PromptBuilder::default();
        let prompt = builder.discovery_prompt(
            &artwork_catalog(),
            "Plot the number of paintings depicting Madonna and Child for each century!",
        );
        let response = llm.complete(&prompt).unwrap();
        assert!(response.contains("paintings_metadata.inception"));
        assert!(response.contains("painting_images.image"));
    }

    #[test]
    fn error_analysis_requests_argument_updates_for_unknown_columns() {
        let llm = SimulatedLlm::gpt4();
        let builder = PromptBuilder::default();
        let prompt = builder.error_prompt(
            "a query",
            "Step 1: ...",
            "Step 2: Select rows",
            "Operator: SQL Selection, Arguments: (dog_depicted = 'yes')",
            "unknown column 'dog_depicted'; available columns are [title, image]",
        );
        let response = llm.complete(&prompt).unwrap();
        let analysis = ErrorAnalysis::parse(&response).unwrap();
        assert!(analysis.update_arguments);
        assert!(!analysis.should_replan());
    }

    #[test]
    fn error_analysis_replans_for_unknown_tables() {
        let llm = SimulatedLlm::gpt4();
        let builder = PromptBuilder::default();
        let prompt = builder.error_prompt(
            "a query",
            "Step 1: ...",
            "Step 1: Join tables",
            "Operator: SQL Join",
            "unknown table 'paintings'; available tables are [paintings_metadata]",
        );
        let response = llm.complete(&prompt).unwrap();
        let analysis = ErrorAnalysis::parse(&response).unwrap();
        assert!(analysis.should_replan());
    }

    #[test]
    fn chatgpt35_data_misunderstanding_rewrites_image_steps_to_title_lookups() {
        let plan = LogicalPlan {
            thought: String::new(),
            steps: vec![
                LogicalStep::new(
                    1,
                    "Join the 'paintings_metadata' and 'painting_images' tables on the 'img_path' column.",
                    vec!["paintings_metadata".into(), "painting_images".into()],
                    "joined_table",
                    vec![],
                ),
                LogicalStep::new(
                    2,
                    "Extract whether madonna and child is depicted in each image from the 'image' column in the 'joined_table' table.",
                    vec!["joined_table".into()],
                    "joined_table",
                    vec!["madonna_and_child_depicted".into()],
                ),
            ],
        };
        let corrupted = corrupt_plan(plan, PlanCorruption::DataMisunderstanding);
        assert_eq!(corrupted.steps.len(), 2);
        assert!(corrupted.steps[1]
            .description
            .contains("'title' column contains"));
        assert!(corrupted.steps[1].new_columns.is_empty());
    }

    #[test]
    fn missing_join_corruption_drops_the_join_step() {
        let plan = LogicalPlan {
            thought: String::new(),
            steps: vec![
                LogicalStep::new(
                    1,
                    "Join the 'a' and 'b' tables on the 'k' column.",
                    vec![],
                    "j",
                    vec![],
                ),
                LogicalStep::new(
                    2,
                    "Count the number of rows in the 'j' table.",
                    vec![],
                    "r",
                    vec![],
                ),
            ],
        };
        let corrupted = corrupt_plan(plan, PlanCorruption::MissingJoin);
        assert_eq!(corrupted.steps.len(), 1);
        assert_eq!(corrupted.steps[0].number, 1);
        assert!(corrupted.steps[0].description.starts_with("Count"));
    }

    #[test]
    fn wrong_tool_corruption_replaces_multimodal_operators_with_sql() {
        let decision = OperatorDecision {
            step_number: 2,
            reasoning: String::new(),
            operator: OperatorKind::VisualQa,
            arguments: vec![
                "image".into(),
                "num_swords".into(),
                "How many swords are depicted?".into(),
                "int".into(),
            ],
        };
        let corrupted = corrupt_decision(decision, MappingCorruption::WrongTool, false);
        assert_eq!(corrupted.operator, OperatorKind::Sql);
    }

    #[test]
    fn recoverable_typos_disappear_on_retry() {
        let decision = OperatorDecision {
            step_number: 2,
            reasoning: String::new(),
            operator: OperatorKind::SqlSelection,
            arguments: vec!["madonna_depicted = 'yes'".into()],
        };
        let corrupted =
            corrupt_decision(decision.clone(), MappingCorruption::RecoverableTypo, false);
        assert!(corrupted.arguments[0].starts_with("wrong_"));
        let fixed = corrupt_decision(decision.clone(), MappingCorruption::RecoverableTypo, true);
        assert_eq!(fixed, decision);
        // Hard wrong-arguments mistakes persist across retries.
        let still_wrong = corrupt_decision(decision, MappingCorruption::WrongArguments, true);
        assert!(still_wrong.arguments[0].starts_with("wrong_"));
    }

    #[test]
    fn unknown_prompts_are_rejected() {
        let llm = SimulatedLlm::gpt4();
        let convo = Conversation::new()
            .with(crate::chat::ChatMessage::system("You are a poet."))
            .with(crate::chat::ChatMessage::human("Write a haiku."));
        assert!(llm.complete(&convo).is_err());
    }
}
