//! Prompt-context extraction: how the simulated model "reads" a prompt.
//!
//! A real LLM consumes the prompt text directly. The simulated model needs the
//! same information in structured form, and — to keep the architecture honest —
//! it obtains it by *parsing the prompt text*, not by receiving side-channel
//! data structures. This module implements that parsing: it recognizes which
//! phase a conversation belongs to and extracts the query, the table sketches,
//! the relevant columns, the step to map, previous observations, and error
//! context.

use crate::chat::Conversation;
use crate::plan::{LogicalPlan, LogicalStep};
use crate::prompt::{
    RelevantColumn, DISCOVERY_MARKER, ERROR_MARKER, MAPPING_MARKER, PLANNING_MARKER,
};

/// Which phase a prompt belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromptKind {
    /// The planning phase (logical plan generation).
    Planning,
    /// The mapping phase (operator selection for one step).
    Mapping,
    /// The discovery phase (column relevance).
    Discovery,
    /// The error-analysis prompt.
    ErrorAnalysis,
    /// Unrecognized prompt.
    Unknown,
}

/// A column as described in a prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSketch {
    /// Column name.
    pub name: String,
    /// Type name as rendered in the prompt (`str`, `int`, `IMAGE`, `TEXT`, ...).
    pub dtype: String,
}

impl ColumnSketch {
    /// Whether the column holds a non-relational modality.
    pub fn is_multimodal(&self) -> bool {
        self.dtype == "IMAGE" || self.dtype == "TEXT"
    }
}

/// A foreign-key relationship as described in a prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct ForeignKeySketch {
    /// Referencing table.
    pub from_table: String,
    /// Referencing column.
    pub from_column: String,
    /// Referenced table.
    pub to_table: String,
    /// Referenced column.
    pub to_column: String,
}

/// A table as described in a prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSketch {
    /// Table name.
    pub name: String,
    /// Row count as stated in the prompt.
    pub num_rows: usize,
    /// Columns in order.
    pub columns: Vec<ColumnSketch>,
    /// Description, if present.
    pub description: String,
    /// Declared foreign keys involving this table.
    pub foreign_keys: Vec<ForeignKeySketch>,
}

impl TableSketch {
    /// Whether the table has a column with this name.
    pub fn has_column(&self, name: &str) -> bool {
        self.columns
            .iter()
            .any(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Type of a column, if present.
    pub fn column_type(&self, name: &str) -> Option<&str> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
            .map(|c| c.dtype.as_str())
    }

    /// Names of IMAGE-typed columns.
    pub fn image_columns(&self) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| c.dtype == "IMAGE")
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Names of TEXT-typed columns.
    pub fn text_columns(&self) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| c.dtype == "TEXT")
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Whether this table carries any non-relational modality.
    pub fn is_multimodal(&self) -> bool {
        self.columns.iter().any(ColumnSketch::is_multimodal)
    }
}

/// The error context extracted from an error-analysis prompt.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ErrorContext {
    /// The rendered logical plan.
    pub plan_text: String,
    /// The step that was being executed.
    pub step_text: String,
    /// The operator decision that failed.
    pub decision_text: String,
    /// The error message.
    pub message: String,
}

/// Everything the simulated model extracted from one prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct PromptContext {
    /// Which phase the prompt belongs to.
    pub kind: PromptKind,
    /// The user query ("My request is: ...").
    pub query: String,
    /// Base tables of the data lake.
    pub tables: Vec<TableSketch>,
    /// Intermediate tables produced by previously executed steps.
    pub intermediate_tables: Vec<TableSketch>,
    /// Relevant columns listed in the prompt.
    pub relevant_columns: Vec<RelevantColumn>,
    /// The step to map (mapping prompts only).
    pub step: Option<LogicalStep>,
    /// Observations from previously executed operators.
    pub observations: Vec<String>,
    /// Error-retry note attached to a mapping prompt.
    pub retry_note: Option<String>,
    /// Error context (error-analysis prompts only).
    pub error: Option<ErrorContext>,
}

impl PromptContext {
    /// Parse a conversation into a context.
    pub fn parse(conversation: &Conversation) -> PromptContext {
        let system = conversation.system_text();
        let human = conversation.human_text();

        let kind = if system.contains(PLANNING_MARKER) {
            PromptKind::Planning
        } else if system.contains(MAPPING_MARKER) {
            PromptKind::Mapping
        } else if system.contains(DISCOVERY_MARKER) {
            PromptKind::Discovery
        } else if system.contains(ERROR_MARKER) {
            PromptKind::ErrorAnalysis
        } else {
            PromptKind::Unknown
        };

        let (base_section, intermediate_section) = split_table_sections(&system);
        let tables = parse_tables(&base_section);
        let intermediate_tables = parse_tables(&intermediate_section);

        let query = extract_after(&human, "My request is:")
            .map(|s| s.lines().next().unwrap_or("").trim().to_string())
            .unwrap_or_default();

        let relevant_columns = parse_relevant_columns(&human);
        let observations = human
            .lines()
            .filter_map(|line| line.trim().strip_prefix("Observation:"))
            .map(|s| s.trim().to_string())
            .collect();
        let retry_note = human
            .lines()
            .find(|line| line.trim().starts_with("Note: a previous attempt"))
            .map(|s| s.trim().to_string());

        let step = if kind == PromptKind::Mapping {
            parse_step_to_map(&human)
        } else {
            None
        };

        let error = if kind == PromptKind::ErrorAnalysis {
            Some(parse_error_context(&human))
        } else {
            None
        };

        PromptContext {
            kind,
            query,
            tables,
            intermediate_tables,
            relevant_columns,
            step,
            observations,
            retry_note,
            error,
        }
    }

    /// Find a base or intermediate table by name.
    pub fn find_table(&self, name: &str) -> Option<&TableSketch> {
        self.intermediate_tables
            .iter()
            .chain(self.tables.iter())
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// The table holding an IMAGE column, if any.
    pub fn image_table(&self) -> Option<&TableSketch> {
        self.tables.iter().find(|t| !t.image_columns().is_empty())
    }

    /// The table holding a TEXT column, if any.
    pub fn text_table(&self) -> Option<&TableSketch> {
        self.tables.iter().find(|t| !t.text_columns().is_empty())
    }
}

fn split_table_sections(system: &str) -> (String, String) {
    let base_marker = if system.contains("The database contains the following tables:") {
        "The database contains the following tables:"
    } else {
        "The candidate tables are:"
    };
    let intermediate_marker = "The intermediate tables produced by previous steps are:";
    let end_markers = [
        "You have the following capabilities:",
        "You can use the following operators:",
        "Answer with one line per relevant column",
    ];
    let base_start = system.find(base_marker).map(|p| p + base_marker.len());
    let intermediate_start = system
        .find(intermediate_marker)
        .map(|p| p + intermediate_marker.len());
    let end = end_markers
        .iter()
        .filter_map(|m| system.find(m))
        .min()
        .unwrap_or(system.len());

    let base = match base_start {
        Some(start) => {
            let stop = intermediate_start
                .map(|p| p - intermediate_marker.len())
                .unwrap_or(end)
                .min(end)
                .max(start);
            system[start..stop].to_string()
        }
        None => String::new(),
    };
    let intermediate = match intermediate_start {
        Some(start) if start <= end => system[start..end].to_string(),
        _ => String::new(),
    };
    (base, intermediate)
}

/// Parse all `name = table(...)` lines of a prompt section.
pub fn parse_tables(section: &str) -> Vec<TableSketch> {
    section
        .lines()
        .filter_map(|line| parse_table_line(line.trim().trim_start_matches('-').trim()))
        .collect()
}

fn parse_table_line(line: &str) -> Option<TableSketch> {
    let (name, rest) = line.split_once(" = table(")?;
    let name = name.trim().to_string();
    let num_rows = extract_after(rest, "num_rows=")
        .and_then(|s| {
            s.chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse::<usize>()
                .ok()
        })
        .unwrap_or(0);
    let columns = extract_bracketed(rest, "columns=[")
        .map(|inner| {
            inner
                .split("', '")
                .flat_map(|piece| piece.split(", '"))
                .filter_map(|piece| {
                    let piece = piece.trim().trim_matches(['\'', ','].as_ref());
                    let (name, dtype) = piece.split_once(':')?;
                    Some(ColumnSketch {
                        name: name.trim().trim_matches('\'').to_string(),
                        dtype: dtype.trim().trim_matches('\'').to_string(),
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    let description = extract_after(rest, "description='")
        .and_then(|s| s.split('\'').next())
        .unwrap_or("")
        .to_string();
    let foreign_keys = extract_bracketed(rest, "foreign_keys=[")
        .map(|inner| {
            inner
                .split(',')
                .filter_map(|piece| {
                    let (from, to) = piece.split_once("->")?;
                    let (from_table, from_column) = from.trim().split_once('.')?;
                    let (to_table, to_column) = to.trim().split_once('.')?;
                    Some(ForeignKeySketch {
                        from_table: from_table.trim().to_string(),
                        from_column: from_column.trim().to_string(),
                        to_table: to_table.trim().to_string(),
                        to_column: to_column.trim().to_string(),
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    Some(TableSketch {
        name,
        num_rows,
        columns,
        description,
        foreign_keys,
    })
}

fn parse_relevant_columns(human: &str) -> Vec<RelevantColumn> {
    let mut out = Vec::new();
    for line in human.lines() {
        let line = line.trim();
        if !line.starts_with("- The '") {
            continue;
        }
        let Some(column) = between(line, "- The '", "'") else {
            continue;
        };
        let Some(table) = between(line, "column of the '", "'") else {
            continue;
        };
        let examples = extract_bracketed(line, "Example values: [")
            .map(|inner| {
                inner
                    .split(',')
                    .map(|s| s.trim().trim_matches('\'').to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default();
        out.push(RelevantColumn {
            table,
            column,
            examples,
        });
    }
    out
}

fn parse_step_to_map(human: &str) -> Option<LogicalStep> {
    // The step block starts at the last "Step <i>:" line of the human message.
    let start = human
        .lines()
        .enumerate()
        .filter(|(_, line)| {
            let t = line.trim();
            t.starts_with("Step ") && t.contains(':')
        })
        .map(|(i, _)| i)
        .last()?;
    let block: String = human.lines().skip(start).collect::<Vec<_>>().join("\n");
    LogicalPlan::parse(&block)
        .ok()
        .and_then(|plan| plan.steps.into_iter().next())
}

fn parse_error_context(human: &str) -> ErrorContext {
    let plan_text = between(
        human,
        "The logical plan was:\n",
        "The step being executed was:",
    )
    .unwrap_or_default()
    .trim()
    .to_string();
    let step_text = between(
        human,
        "The step being executed was:",
        "The chosen operator was:",
    )
    .unwrap_or_default()
    .trim()
    .to_string();
    let decision_text = between(human, "The chosen operator was:", "The error message is:")
        .unwrap_or_default()
        .trim()
        .to_string();
    let message = extract_after(human, "The error message is:")
        .unwrap_or("")
        .trim()
        .to_string();
    ErrorContext {
        plan_text,
        step_text,
        decision_text,
        message,
    }
}

fn extract_after<'a>(text: &'a str, marker: &str) -> Option<&'a str> {
    text.find(marker).map(|pos| &text[pos + marker.len()..])
}

fn extract_bracketed(text: &str, marker: &str) -> Option<String> {
    let rest = extract_after(text, marker)?;
    rest.find(']').map(|end| rest[..end].to_string())
}

fn between(text: &str, start: &str, end: &str) -> Option<String> {
    let rest = extract_after(text, start)?;
    let stop = rest.find(end)?;
    Some(rest[..stop].trim().trim_matches('\'').to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{MappingRequest, PromptBuilder, RelevantColumn, StepObservation};
    use caesura_engine::{Catalog, DataType, ForeignKey, Schema, TableBuilder};

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("title", DataType::Str),
            ("inception", DataType::Str),
            ("img_path", DataType::Str),
        ]);
        let mut b = TableBuilder::new("paintings_metadata", schema);
        b.push_values(["Madonna", "1889", "img/1.png"]).unwrap();
        catalog.register(b.description("Painting metadata").build());
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
    fn planning_prompt_round_trips_into_context() {
        let builder = PromptBuilder::default();
        let relevant = vec![RelevantColumn {
            table: "paintings_metadata".into(),
            column: "inception".into(),
            examples: vec!["1889".into()],
        }];
        let prompt = builder.planning_prompt(
            &catalog(),
            "Plot the number of paintings depicting Madonna and Child for each century!",
            &relevant,
        );
        let context = PromptContext::parse(&prompt);
        assert_eq!(context.kind, PromptKind::Planning);
        assert!(context.query.starts_with("Plot the number of paintings"));
        assert_eq!(context.tables.len(), 2);
        let metadata = context.find_table("paintings_metadata").unwrap();
        assert_eq!(metadata.num_rows, 1);
        assert!(metadata.has_column("inception"));
        assert_eq!(metadata.description, "Painting metadata");
        assert_eq!(metadata.foreign_keys.len(), 1);
        assert_eq!(metadata.foreign_keys[0].to_table, "painting_images");
        let images = context.image_table().unwrap();
        assert_eq!(images.name, "painting_images");
        assert_eq!(images.image_columns(), vec!["image"]);
        assert_eq!(context.relevant_columns.len(), 1);
        assert_eq!(context.relevant_columns[0].examples, vec!["1889"]);
    }

    #[test]
    fn mapping_prompt_round_trips_step_and_observations() {
        let builder = PromptBuilder::default();
        let step = crate::plan::LogicalStep::new(
            3,
            "Select only the paintings depicting Madonna and Child.",
            vec!["joined_table".into()],
            "madonna_paintings",
            vec![],
        );
        let mut intermediate = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("title", DataType::Str),
            ("madonna_depicted", DataType::Str),
        ]);
        intermediate.register(TableBuilder::new("joined_table", schema).build());
        let observations = [StepObservation {
            table: "joined_table".into(),
            new_columns: "New column 'madonna_depicted' has been added. Example values: [yes, no]."
                .into(),
        }];
        let prompt = builder.mapping_prompt(&MappingRequest {
            catalog: &catalog(),
            intermediate: &intermediate,
            query: "Plot the number of paintings depicting Madonna and Child for each century!",
            step: &step,
            relevant_columns: &[],
            observations: &observations,
            error_context: Some("The previous selection referenced a non-existent column."),
        });
        let context = PromptContext::parse(&prompt);
        assert_eq!(context.kind, PromptKind::Mapping);
        assert_eq!(context.intermediate_tables.len(), 1);
        assert!(context
            .find_table("joined_table")
            .unwrap()
            .has_column("madonna_depicted"));
        // Base tables the step does not read arrive as brief lines: name, row
        // count and typed columns still parse, description and keys are gone.
        assert_eq!(context.tables.len(), 2);
        let metadata = context.find_table("paintings_metadata").unwrap();
        assert_eq!(metadata.num_rows, 1);
        assert_eq!(metadata.column_type("inception"), Some("str"));
        assert_eq!(metadata.description, "");
        assert!(metadata.foreign_keys.is_empty());
        assert_eq!(context.image_table().unwrap().name, "painting_images");
        let step = context.step.unwrap();
        assert_eq!(step.number, 3);
        assert!(step.description.contains("Madonna and Child"));
        assert_eq!(step.output, "madonna_paintings");
        assert_eq!(context.observations, [observations[0].new_columns.clone()]);
        assert!(context.retry_note.unwrap().contains("previous attempt"));
    }

    #[test]
    fn error_prompt_round_trips_error_context() {
        let builder = PromptBuilder::default();
        let prompt = builder.error_prompt(
            "How many paintings depict a dog?",
            "Step 1: ...\nStep 2: ...",
            "Step 2: Select the paintings that depict a dog",
            "Operator: SQL Selection, Arguments: (dog_depicted = 'yes')",
            "unknown column 'dog_depicted'; available columns are [title, image]",
        );
        let context = PromptContext::parse(&prompt);
        assert_eq!(context.kind, PromptKind::ErrorAnalysis);
        let error = context.error.unwrap();
        assert!(error.message.contains("dog_depicted"));
        assert!(error.step_text.contains("Step 2"));
        assert!(error.decision_text.contains("SQL Selection"));
        assert!(error.plan_text.contains("Step 1"));
    }

    #[test]
    fn discovery_prompt_is_recognized() {
        let builder = PromptBuilder::default();
        let prompt = builder.discovery_prompt(&catalog(), "Which movements exist?");
        let context = PromptContext::parse(&prompt);
        assert_eq!(context.kind, PromptKind::Discovery);
        assert_eq!(context.tables.len(), 2);
        assert_eq!(context.query, "Which movements exist?");
    }

    #[test]
    fn unknown_prompts_yield_unknown_kind() {
        let convo = Conversation::new()
            .with(crate::chat::ChatMessage::system("You are a poet."))
            .with(crate::chat::ChatMessage::human("Write a haiku."));
        assert_eq!(PromptContext::parse(&convo).kind, PromptKind::Unknown);
    }
}
