//! Prompt construction for the three CAESURA phases plus error analysis.
//!
//! Each prompt is a two-message conversation (system + human) following the
//! structure shown in Figure 3 of the paper: data description, capability /
//! operator description, output-format instructions, and finally the request
//! (plus, for the planning phase, optional few-shot example translations).

use crate::chat::{ChatMessage, Conversation};
use crate::plan::LogicalStep;
use caesura_engine::{Catalog, DataType, Field, Table};
use caesura_modal::OperatorKind;
use std::sync::OnceLock;

/// A column that the discovery phase marked as relevant, together with a few
/// example values that help the planner generate correct conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct RelevantColumn {
    /// Table the column belongs to.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Example values rendered as strings.
    pub examples: Vec<String>,
}

impl RelevantColumn {
    /// Render the "- The 'x' column of the 'y' table might be relevant" line.
    pub fn render(&self) -> String {
        if self.examples.is_empty() {
            format!(
                "- The '{}' column of the '{}' table might be relevant.",
                self.column, self.table
            )
        } else {
            format!(
                "- The '{}' column of the '{}' table might be relevant. Example values: [{}].",
                self.column,
                self.table,
                self.examples.join(", ")
            )
        }
    }
}

/// Configuration of the prompt builder.
#[derive(Debug, Clone, PartialEq)]
pub struct PromptConfig {
    /// Include few-shot example translations in the planning prompt (§3.1:
    /// "in order to improve the quality of plans, we add a few examples of
    /// correct logical plans using few-shot prompting").
    pub few_shot: bool,
    /// How many example values to show per relevant column.
    pub example_values: usize,
}

impl Default for PromptConfig {
    fn default() -> Self {
        PromptConfig {
            few_shot: true,
            example_values: 3,
        }
    }
}

/// What a plan step left behind for the steps that read its output: the
/// table it produced and the new-column notes of its observation
/// ([`caesura_engine::Observation::new_columns`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepObservation {
    /// The output table the observation describes.
    pub table: String,
    /// `New column 'c' has been added. Example values: [...]` sentences.
    pub new_columns: String,
}

/// Everything [`PromptBuilder::mapping_prompt`] reads, borrowed from the
/// session's mapping loop.
#[derive(Debug, Clone, Copy)]
pub struct MappingRequest<'a> {
    /// The base tables discovery kept for the query.
    pub catalog: &'a Catalog,
    /// The tables produced by previously executed steps.
    pub intermediate: &'a Catalog,
    /// The user query.
    pub query: &'a str,
    /// The step to map.
    pub step: &'a LogicalStep,
    /// The columns discovery marked relevant for the query.
    pub relevant_columns: &'a [RelevantColumn],
    /// The latest observation per output table (interleaved execution,
    /// §3.1), in execution order.
    pub observations: &'a [StepObservation],
    /// Why the previous attempt at this step failed, on a retry.
    pub error_context: Option<&'a str>,
}

/// Builds the prompts for all phases.
#[derive(Debug, Clone, Default)]
pub struct PromptBuilder {
    /// Builder configuration.
    pub config: PromptConfig,
}

/// Marker line that identifies the planning phase (the simulated model keys on it).
pub const PLANNING_MARKER: &str = "you generate plans to retrieve data from databases";
/// Marker line that identifies the mapping phase.
pub const MAPPING_MARKER: &str = "you map steps in an informal query plan to concrete operators";
/// Marker line that identifies the discovery (column relevance) phase.
pub const DISCOVERY_MARKER: &str = "you identify which columns are relevant";
/// Marker line that identifies the error-analysis prompt.
pub const ERROR_MARKER: &str = "you analyze errors that occurred while executing a query plan";

impl PromptBuilder {
    /// Create a builder with the given configuration.
    pub fn new(config: PromptConfig) -> Self {
        PromptBuilder { config }
    }

    /// The CAESURA capability description used in the planning prompt. These
    /// are *logical* capabilities — the planner should not pick concrete
    /// operators yet.
    pub fn capabilities_text() -> String {
        [
            "You are able to look at images (columns of type IMAGE). For example, you are able to \
             recognize the objects depicted in images, count them, and check whether something is \
             depicted.",
            "You are able to read text documents (columns of type TEXT). For example, you are able \
             to extract numbers and facts mentioned in the documents, such as how many points a \
             team scored.",
            "You are able to join tables on a common column, select rows by a condition, group \
             rows and compute aggregates (count, sum, average, minimum, maximum), and sort.",
            "You are able to compute new columns from existing columns, for example extracting \
             the century from a date.",
            "You are able to plot the final result as a bar, line, or scatter chart.",
        ]
        .join("\n")
    }

    /// Build the planning-phase prompt (Figure 3, left).
    pub fn planning_prompt(
        &self,
        catalog: &Catalog,
        query: &str,
        relevant_columns: &[RelevantColumn],
    ) -> Conversation {
        let mut system = String::new();
        system.push_str(&format!("You are CAESURA and {PLANNING_MARKER}.\n"));
        system.push_str("The database contains the following tables:\n");
        system.push_str(&catalog.prompt_summary());
        system.push_str("\n\nYou have the following capabilities:\n");
        system.push_str(&Self::capabilities_text());
        system.push_str(
            "\n\nUse the following format:\n\
             Request: The user request you must satisfy by using your capabilities\n\
             Thought: You should always think what to do.\n\
             Step 1: Description of the step.\n\
             Input: List of tables passed as input.\n\
             Output: Name of the output table.\n\
             New Columns: The new columns that have been added to the dataset.\n\
             ... (this can repeat N times)\n\
             Step N: Plan completed.\n",
        );
        if self.config.few_shot {
            system.push_str("\nHere are example translations from other domains:\n");
            system.push_str(FEW_SHOT_EXAMPLES);
        }

        let mut human = format!("My request is: {query}\n");
        if !relevant_columns.is_empty() {
            human.push_str("These columns are potentially relevant:\n");
            for column in relevant_columns {
                human.push_str(&column.render());
                human.push('\n');
            }
        }

        Conversation::new()
            .with(ChatMessage::system(system))
            .with(ChatMessage::human(human))
    }

    /// Build the mapping-phase prompt for one logical step (Figure 3, right),
    /// scoped to what the step can act on — its input tables:
    ///
    /// * **tables** — each input table once, in full (an intermediate table
    ///   shadows a base table of the same name, as it does in the executor);
    ///   every other base table as its brief `name = table(num_rows,
    ///   columns)` line; intermediate tables the step does not read are left
    ///   out;
    /// * **operators** — an operator that
    ///   [requires](OperatorKind::required_modality) a modality is offered
    ///   only when an input has a column of that type (all are offered when
    ///   an input cannot be resolved: nothing is known about it);
    /// * **relevant columns** — those of an input table, or whose plain or
    ///   table-qualified name is a column of one;
    /// * **observations** — the new-column notes of the input tables (the
    ///   rest of an observation restates the table line).
    pub fn mapping_prompt(&self, request: &MappingRequest<'_>) -> Conversation {
        let MappingRequest {
            catalog,
            intermediate,
            query,
            step,
            relevant_columns,
            observations,
            error_context,
        } = *request;
        let scope = StepScope::resolve(catalog, intermediate, step);

        let mut system = String::with_capacity(4096);
        system.push_str("You are CAESURA, and ");
        system.push_str(MAPPING_MARKER);
        system.push_str(".\nThe database contains the following tables:");
        for table in catalog.tables() {
            system.push('\n');
            if scope.reads(table.name(), Origin::Base) {
                system.push_str(&catalog.prompt_line(table));
            } else {
                system.push_str(" - ");
                system.push_str(&table.prompt_summary_brief());
            }
        }
        let mut produced = intermediate
            .tables()
            .filter(|table| scope.reads(table.name(), Origin::Intermediate))
            .peekable();
        if produced.peek().is_some() {
            system.push_str("\nThe intermediate tables produced by previous steps are:");
            for table in produced {
                system.push('\n');
                system.push_str(&intermediate.prompt_line(table));
            }
        }
        system.push_str(operators_and_format(
            scope.may_hold(DataType::Image),
            scope.may_hold(DataType::Text),
        ));

        let mut human = String::with_capacity(1024);
        human.push_str("Map the steps one by one.\nMy request is: ");
        human.push_str(query);
        human.push('\n');
        let mut relevant = relevant_columns
            .iter()
            .filter(|column| scope.uses(step, column))
            .peekable();
        if relevant.peek().is_some() {
            human.push_str("These columns are relevant:\n");
            for column in relevant {
                human.push_str(&column.render());
                human.push('\n');
            }
        }
        let mut observed = observations
            .iter()
            .filter(|o| scope.reads(&o.table, Origin::Intermediate))
            .peekable();
        if observed.peek().is_some() {
            human.push_str("Previous observations:\n");
            for observation in observed {
                human.push_str("Observation: ");
                human.push_str(&observation.new_columns);
                human.push('\n');
            }
        }
        if let Some(error) = error_context {
            human.push_str("Note: a previous attempt at this step failed. ");
            human.push_str(error);
            human.push('\n');
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

    /// Build the discovery-phase column-relevance prompt. (Dense retrieval has
    /// already narrowed the candidate tables; the LLM picks relevant columns.)
    pub fn discovery_prompt(&self, catalog: &Catalog, query: &str) -> Conversation {
        let mut system = String::new();
        system.push_str(&format!(
            "You are CAESURA, and {DISCOVERY_MARKER} for a user request.\n"
        ));
        system.push_str("The candidate tables are:\n");
        system.push_str(&catalog.prompt_summary());
        system.push_str(
            "\n\nAnswer with one line per relevant column in the format:\n\
             Relevant: <table>.<column>\n",
        );
        let human = format!("My request is: {query}\n");
        Conversation::new()
            .with(ChatMessage::system(system))
            .with(ChatMessage::human(human))
    }

    /// Build the error-analysis prompt (§3.2). `plan_text` is the rendered
    /// logical plan, `step_text` describes the step being executed when the
    /// error occurred, `decision_text` the chosen operator and arguments.
    pub fn error_prompt(
        &self,
        query: &str,
        plan_text: &str,
        step_text: &str,
        decision_text: &str,
        error_message: &str,
    ) -> Conversation {
        let mut system = String::new();
        system.push_str(&format!("You are CAESURA, and {ERROR_MARKER}.\n"));
        system.push_str(
            "Answer the following questions about the error:\n\
             (1) What are the potential causes of this error?\n\
             (2) Explain in detail how this error could be fixed.\n\
             (3) Is there a flaw in my plan (Yes/No)?\n\
             (4) Is there a more suitable alternative plan (Yes/No)?\n\
             (5) Should a different tool be selected for any step (Yes/No)?\n\
             (6) Do the input arguments of some of the steps need to be updated (Yes/No)?\n\
             \nUse the following output format:\n\
             Potential causes: ...\n\
             Suggested fix: ...\n\
             Flaw in plan: Yes/No\n\
             Alternative plan: Yes/No\n\
             Different tool: Yes/No\n\
             Update arguments: Yes/No\n",
        );
        let human = format!(
            "My request is: {query}\nThe logical plan was:\n{plan_text}\n\
             The step being executed was: {step_text}\n\
             The chosen operator was: {decision_text}\n\
             The error message is: {error_message}\n"
        );
        Conversation::new()
            .with(ChatMessage::system(system))
            .with(ChatMessage::human(human))
    }
}

/// Where an input table of a step lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Base,
    Intermediate,
}

/// The input tables of the step a mapping prompt is built for.
struct StepScope<'a> {
    inputs: Vec<(&'a Table, Origin)>,
    /// Whether the step names no input, or one that is in neither catalog.
    unresolved: bool,
}

impl<'a> StepScope<'a> {
    /// Resolve the step's inputs the way the executor does: intermediate
    /// tables first, by [`Catalog::table`]'s lookup rule.
    fn resolve(catalog: &'a Catalog, intermediate: &'a Catalog, step: &LogicalStep) -> Self {
        let mut scope = StepScope {
            inputs: Vec::with_capacity(step.inputs.len()),
            unresolved: step.inputs.is_empty(),
        };
        for name in &step.inputs {
            let found = intermediate
                .table(name)
                .map(|table| (&**table, Origin::Intermediate))
                .or_else(|_| catalog.table(name).map(|table| (&**table, Origin::Base)));
            match found {
                Ok((table, origin)) if scope.reads(table.name(), origin) => {}
                Ok(input) => scope.inputs.push(input),
                Err(_) => scope.unresolved = true,
            }
        }
        scope
    }

    /// Whether the table `name` of `origin` is an input of the step.
    fn reads(&self, name: &str, origin: Origin) -> bool {
        self.inputs
            .iter()
            .any(|(input, from)| *from == origin && input.name() == name)
    }

    fn fields(&self) -> impl Iterator<Item = &Field> + '_ {
        self.inputs
            .iter()
            .flat_map(|(table, _)| table.schema().fields())
    }

    /// Whether an input has — or, unresolved, might have — a column of `dtype`.
    fn may_hold(&self, dtype: DataType) -> bool {
        self.unresolved || self.fields().any(|field| field.data_type == dtype)
    }

    /// Whether a relevant column belongs to an input table, or names one of
    /// an input's columns — plainly, or qualified by its table as a join
    /// qualifies a clashing name.
    fn uses(&self, step: &LogicalStep, relevant: &RelevantColumn) -> bool {
        step.inputs
            .iter()
            .any(|name| name.eq_ignore_ascii_case(&relevant.table))
            || self.fields().any(|field| {
                field.name.eq_ignore_ascii_case(&relevant.column)
                    || field.name.split_once('.')
                        == Some((relevant.table.as_str(), relevant.column.as_str()))
            })
    }
}

/// The operator list for a step whose inputs hold the given modalities plus
/// the output-format instructions: the static tail of the mapping system
/// message, rendered once per modality combination.
fn operators_and_format(image: bool, text: bool) -> &'static str {
    static BLOCKS: OnceLock<[String; 4]> = OnceLock::new();
    let blocks = BLOCKS.get_or_init(|| {
        std::array::from_fn(|mask| {
            format!(
                "\n\nYou can use the following operators:\n{}\n\n\
                 Use the following output format:\n\
                 Step <i>: What to do in this step?\n\
                 Reasoning: Reason about which operator should be used for this step. Take datatypes into account.\n\
                 Operator: The operator to use, should be one of the operators listed above.\n\
                 Arguments: The arguments to call the operator, separated by ';'. Should be (arg_1; ...; arg_n)\n",
                OperatorKind::prompt_catalog(mask & 1 != 0, mask & 2 != 0)
            )
        })
    });
    &blocks[usize::from(image) | usize::from(text) << 1]
}

/// Few-shot example translations shown at the start of the planning prompt.
/// They come from a different domain (a hospital data lake) so that the model
/// learns the *format*, not the answers — mirroring §3.1 of the paper.
pub const FEW_SHOT_EXAMPLES: &str = "\
Request: How many MRI scans show a fracture?\n\
Thought: The scan images must be joined with the scan metadata, inspected, and counted.\n\
Step 1: Join the 'scan_metadata' and 'scan_images' tables on the 'scan_id' column.\n\
Input: scan_metadata, scan_images\n\
Output: joined_scans\n\
New Columns: none\n\
Step 2: Extract whether a fracture is visible in each image from the 'image' column in the 'joined_scans' table.\n\
Input: joined_scans\n\
Output: joined_scans\n\
New Columns: fracture_visible\n\
Step 3: Select only the rows of 'joined_scans' where a fracture is visible.\n\
Input: joined_scans\n\
Output: fracture_scans\n\
New Columns: none\n\
Step 4: Count the number of rows in 'fracture_scans'.\n\
Input: fracture_scans\n\
Output: result_table\n\
New Columns: num_scans\n\
Step 5: Plan completed.\n\
\n\
Request: Plot the average length of stay for each ward.\n\
Thought: The stays table already contains everything; aggregate and plot.\n\
Step 1: Group the 'stays' table by 'ward' and compute the average of 'length_of_stay'.\n\
Input: stays\n\
Output: result_table\n\
New Columns: avg_length_of_stay\n\
Step 2: Plot the 'result_table' in a bar plot. The 'ward' should be on the X-axis and the 'avg_length_of_stay' on the Y-axis.\n\
Input: result_table\n\
Output: plot\n\
New Columns: none\n\
Step 3: Plan completed.\n";

#[cfg(test)]
mod tests {
    use super::*;
    use caesura_engine::{DataType, Schema, TableBuilder};

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("title", DataType::Str),
            ("inception", DataType::Str),
            ("img_path", DataType::Str),
        ]);
        catalog.register(
            TableBuilder::new("paintings_metadata", schema)
                .description("Metadata about paintings")
                .build(),
        );
        let schema = Schema::from_pairs(&[("img_path", DataType::Str), ("image", DataType::Image)]);
        catalog.register(TableBuilder::new("painting_images", schema).build());
        catalog
    }

    #[test]
    fn planning_prompt_contains_all_figure3_sections() {
        let builder = PromptBuilder::default();
        let relevant = vec![RelevantColumn {
            table: "paintings_metadata".into(),
            column: "inception".into(),
            examples: vec!["1889-01-05".into(), "c. 1480".into()],
        }];
        let prompt = builder.planning_prompt(
            &catalog(),
            "Plot the number of paintings depicting Madonna and Child for each century!",
            &relevant,
        );
        let system = prompt.system_text();
        let human = prompt.human_text();
        assert!(system.contains(PLANNING_MARKER));
        assert!(system.contains("paintings_metadata = table(num_rows=0"));
        assert!(system.contains("'image': 'IMAGE'"));
        assert!(system.contains("Step N: Plan completed."));
        assert!(system.contains("example translations"));
        assert!(human.contains("My request is: Plot the number of paintings"));
        assert!(human.contains("'inception' column of the 'paintings_metadata'"));
        assert!(human.contains("1889-01-05"));
    }

    #[test]
    fn few_shot_can_be_disabled() {
        let builder = PromptBuilder::new(PromptConfig {
            few_shot: false,
            example_values: 3,
        });
        let prompt = builder.planning_prompt(&catalog(), "a query", &[]);
        assert!(!prompt.system_text().contains("example translations"));
    }

    #[test]
    fn mapping_prompt_is_scoped_to_the_step_inputs() {
        let builder = PromptBuilder::default();
        let step = LogicalStep::new(
            2,
            "Extract the number of swords depicted in each image.",
            vec!["joined_table".into()],
            "joined_table",
            vec!["num_swords".into()],
        );
        let mut intermediate = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("title", DataType::Str),
            ("image", DataType::Image),
            ("madonna_depicted", DataType::Str),
        ]);
        intermediate.register(TableBuilder::new("joined_table", schema).build());
        let schema = Schema::from_pairs(&[("century", DataType::Int)]);
        intermediate.register(TableBuilder::new("unread_table", schema).build());
        let relevant = [
            RelevantColumn {
                table: "paintings_metadata".into(),
                column: "title".into(),
                examples: vec![],
            },
            RelevantColumn {
                table: "paintings_metadata".into(),
                column: "inception".into(),
                examples: vec![],
            },
        ];
        let observations = [
            StepObservation {
                table: "unread_table".into(),
                new_columns: "New column 'century' has been added. Example values: [15].".into(),
            },
            StepObservation {
                table: "joined_table".into(),
                new_columns:
                    "New column 'madonna_depicted' has been added. Example values: [yes, no]."
                        .into(),
            },
        ];
        let prompt = builder.mapping_prompt(&MappingRequest {
            catalog: &catalog(),
            intermediate: &intermediate,
            query: "Plot the maximum number of swords depicted on the paintings of each century",
            step: &step,
            relevant_columns: &relevant,
            observations: &observations,
            error_context: None,
        });
        let system = prompt.system_text();
        let human = prompt.human_text();
        assert!(system.contains(MAPPING_MARKER));
        // The input in full, base tables the step does not read in brief,
        // other intermediate tables not at all.
        assert!(system.contains(" - joined_table = table(num_rows=0, columns=['title': 'str', 'image': 'IMAGE', 'madonna_depicted': 'str'])"));
        assert!(system.contains(
            " - paintings_metadata = table(num_rows=0, columns=['title': 'str', 'inception': 'str', 'img_path': 'str'])\n"
        ));
        assert!(!system.contains("Metadata about paintings"));
        assert!(!system.contains("unread_table"));
        // An IMAGE input, no TEXT input.
        assert!(system.contains("Visual Question Answering: "));
        assert!(system.contains("Image Select: "));
        assert!(!system.contains("Text Question Answering: "));
        assert!(system.contains("Operator: The operator to use"));
        assert!(human.contains("Step 2: Extract the number of swords"));
        assert!(human.contains("'title' column of the 'paintings_metadata'"));
        assert!(!human.contains("'inception'"));
        assert_eq!(human.matches("Observation: ").count(), 1);
        assert!(human.contains("Observation: New column 'madonna_depicted'"));
    }

    #[test]
    fn mapping_prompt_renders_base_inputs_in_full_and_keeps_the_retry_note() {
        let builder = PromptBuilder::default();
        let step = LogicalStep::new(
            1,
            "Select only the rows of the 'paintings_metadata' table where the 'title' column equals 'Irises'.",
            vec!["paintings_metadata".into()],
            "selected",
            vec![],
        );
        let prompt = builder.mapping_prompt(&MappingRequest {
            catalog: &catalog(),
            intermediate: &Catalog::new(),
            query: "a query",
            step: &step,
            relevant_columns: &[],
            observations: &[],
            error_context: Some("The error was: unknown column."),
        });
        let system = prompt.system_text();
        assert!(system.contains("description='Metadata about paintings'"));
        assert!(system.contains(" - painting_images = table(num_rows=0, columns=['img_path': 'str', 'image': 'IMAGE'])\n"));
        assert!(!system.contains("intermediate tables"));
        // Neither input holds images or text: relational operators only.
        assert!(!system.contains("Visual Question Answering: "));
        assert!(!system.contains("Text Question Answering: "));
        assert!(system.contains("SQL Selection: ") && system.contains("Plot: "));
        assert!(prompt.human_text().contains(
            "Note: a previous attempt at this step failed. The error was: unknown column.\n"
        ));
    }

    #[test]
    fn mapping_prompt_offers_every_operator_when_an_input_is_unknown() {
        let builder = PromptBuilder::default();
        let step = LogicalStep::new(
            3,
            "Extract the number of swords depicted in each image.",
            vec!["not_produced_yet".into()],
            "out",
            vec![],
        );
        let prompt = builder.mapping_prompt(&MappingRequest {
            catalog: &catalog(),
            intermediate: &Catalog::new(),
            query: "a query",
            step: &step,
            relevant_columns: &[],
            observations: &[],
            error_context: None,
        });
        let system = prompt.system_text();
        for op in OperatorKind::all() {
            assert!(system.contains(&format!("{}: ", op.name())), "{op:?}");
        }
        assert!(!system.contains("description="));
    }

    #[test]
    fn error_prompt_contains_the_six_questions_and_context() {
        let builder = PromptBuilder::default();
        let prompt = builder.error_prompt(
            "a query",
            "Step 1: Join ...",
            "Step 2: Select rows",
            "Operator: SQL Selection, Arguments: (bad_column = 'yes')",
            "unknown column 'bad_column'",
        );
        let system = prompt.system_text();
        let human = prompt.human_text();
        assert!(system.contains(ERROR_MARKER));
        assert!(system.contains("Flaw in plan"));
        assert!(human.contains("unknown column 'bad_column'"));
        assert!(human.contains("Step 2: Select rows"));
    }

    #[test]
    fn discovery_prompt_asks_for_relevant_lines() {
        let builder = PromptBuilder::default();
        let prompt = builder.discovery_prompt(&catalog(), "Which movements are represented?");
        assert!(prompt.system_text().contains(DISCOVERY_MARKER));
        assert!(prompt.system_text().contains("Relevant: <table>.<column>"));
        assert!(prompt.human_text().contains("Which movements"));
    }

    #[test]
    fn relevant_column_rendering() {
        let col = RelevantColumn {
            table: "teams".into(),
            column: "conference".into(),
            examples: vec!["Eastern".into(), "Western".into()],
        };
        let line = col.render();
        assert!(line.contains("'conference' column of the 'teams' table"));
        assert!(line.contains("Eastern"));
        let bare = RelevantColumn {
            table: "teams".into(),
            column: "name".into(),
            examples: vec![],
        };
        assert!(!bare.render().contains("Example values"));
    }
}
