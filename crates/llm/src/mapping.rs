//! Mapping-phase decisions: from one logical step (plus the observations of
//! previously executed steps) to a concrete physical operator and arguments.
//!
//! This mirrors what the paper expects the LLM to do in the mapping phase
//! (Figure 3, right): read the step description, look at the *current*
//! intermediate tables (including columns added by previously executed
//! operators — the benefit of interleaved execution, §3.1), and emit an
//! `Operator:` / `Arguments:` answer.

use crate::context::{PromptContext, TableSketch};
use crate::plan::{LogicalStep, OperatorDecision};
use caesura_modal::OperatorKind;

/// Decide the physical operator for a logical step.
pub fn decide(step: &LogicalStep, context: &PromptContext) -> OperatorDecision {
    let description = step.description.clone();
    let lower = description.to_lowercase();
    let quoted = quoted_spans(&description);
    let input_sketch = step
        .inputs
        .first()
        .and_then(|name| context.find_table(name));

    let (operator, arguments, reasoning) = if lower.starts_with("join ") {
        decide_join(&quoted)
    } else if lower.contains("'image' column")
        || (lower.contains("depicted") && lower.contains("extract"))
    {
        decide_visual_qa(step, &lower)
    } else if lower.contains("'report' column")
        || ((lower.contains("scored")
            || lower.contains("won the game")
            || lower.contains("lost the game"))
            && lower.contains("extract"))
    {
        decide_text_qa(step, &lower, input_sketch)
    } else if lower.starts_with("extract the century")
        || lower.starts_with("extract the year")
        || (lower.starts_with("extract") && (lower.contains("century") || lower.contains("year")))
    {
        decide_python(step, &description)
    } else if lower.starts_with("select only") || lower.starts_with("keep only the rows") {
        decide_selection(step, &quoted, &lower, input_sketch)
    } else if lower.starts_with("group the")
        || lower.starts_with("count the number of rows")
        || lower.starts_with("compute the")
    {
        decide_aggregation(step, &quoted, &lower, input_sketch)
    } else if lower.starts_with("keep only") || lower.starts_with("project") {
        decide_projection(step, &quoted, input_sketch)
    } else if lower.starts_with("plot") || lower.contains("bar plot") {
        decide_plot(&quoted)
    } else {
        // Fallback: pass the input through unchanged.
        let table = step
            .inputs
            .first()
            .cloned()
            .unwrap_or_else(|| "result_table".to_string());
        (
            OperatorKind::Sql,
            vec![format!("SELECT * FROM {table}")],
            "The step does not require any specific operator, so a plain SQL projection is used."
                .to_string(),
        )
    };

    OperatorDecision {
        step_number: step.number,
        reasoning,
        operator,
        arguments,
    }
}

/// The spans enclosed in single quotes, in order of appearance.
pub fn quoted_spans(text: &str) -> Vec<String> {
    let mut spans = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('\'') {
        let after = &rest[start + 1..];
        match after.find('\'') {
            Some(end) => {
                spans.push(after[..end].to_string());
                rest = &after[end + 1..];
            }
            None => break,
        }
    }
    spans
}

fn decide_join(quoted: &[String]) -> (OperatorKind, Vec<String>, String) {
    // "Join the 'A' and 'B' tables on the 'k' column" — quoted = [A, B, k]
    // or [A, B, k_left, k_right] when the key columns differ.
    let (left, right) = match (quoted.first(), quoted.get(1)) {
        (Some(l), Some(r)) => (l.clone(), r.clone()),
        _ => ("left_table".to_string(), "right_table".to_string()),
    };
    let (left_key, right_key) = match (quoted.get(2), quoted.get(3)) {
        (Some(k), Some(k2)) => (k.clone(), k2.clone()),
        (Some(k), None) => (k.clone(), k.clone()),
        _ => ("id".to_string(), "id".to_string()),
    };
    let sql =
        format!("SELECT * FROM {left} JOIN {right} ON {left}.{left_key} = {right}.{right_key}");
    (
        OperatorKind::SqlJoin,
        vec![sql],
        format!("The step combines the '{left}' and '{right}' tables, which is a relational join."),
    )
}

fn decide_visual_qa(step: &LogicalStep, lower: &str) -> (OperatorKind, Vec<String>, String) {
    let new_column = step
        .new_columns
        .first()
        .cloned()
        .unwrap_or_else(|| "extracted".to_string());
    // Counting vs existence question.
    let (question, dtype) = if let Some(entity) = between(lower, "the number of ", " depicted") {
        (format!("How many {} are depicted?", entity.trim()), "int")
    } else if let Some(entity) = between(lower, "whether ", " is depicted") {
        (format!("Is {} depicted?", entity.trim()), "str")
    } else {
        ("What is depicted?".to_string(), "str")
    };
    (
        OperatorKind::VisualQa,
        vec!["image".to_string(), new_column, question, dtype.to_string()],
        "The step asks about the content of images (IMAGE column), so Visual Question Answering \
         must be used."
            .to_string(),
    )
}

fn decide_text_qa(
    step: &LogicalStep,
    lower: &str,
    input_sketch: Option<&TableSketch>,
) -> (OperatorKind, Vec<String>, String) {
    let new_column = step
        .new_columns
        .first()
        .cloned()
        .unwrap_or_else(|| "extracted".to_string());
    // The subject placeholder: the name-like column of the input table. After
    // a join the column may only exist in qualified form (e.g. 'teams.name'),
    // which the observation-aware sketch tells us.
    let subject_column = subject_column(input_sketch);
    let (question, dtype) = if lower.contains("points") {
        (
            format!("How many points did <{subject_column}> score?"),
            "int",
        )
    } else if lower.contains("specimens") {
        (
            format!("How many specimens did <{subject_column}> collect?"),
            "int",
        )
    } else if lower.contains("readings") {
        (
            format!("How many readings did <{subject_column}> log?"),
            "int",
        )
    } else if lower.contains("samples") {
        (
            format!("How many samples did <{subject_column}> store?"),
            "int",
        )
    } else if lower.contains("won the game") || lower.contains(" won ") {
        (format!("Did <{subject_column}> win?"), "str")
    } else if lower.contains("lost the game") || lower.contains(" lost ") {
        (format!("Did <{subject_column}> lose?"), "str")
    } else {
        (
            format!("How many points did <{subject_column}> score?"),
            "int",
        )
    };
    let text_column = input_sketch
        .and_then(|t| t.text_columns().first().map(|c| c.to_string()))
        .unwrap_or_else(|| "report".to_string());
    (
        OperatorKind::TextQa,
        vec![text_column, new_column, question, dtype.to_string()],
        "The step extracts information from the textual game reports (TEXT column), so Text \
         Question Answering must be used with a per-row question template."
            .to_string(),
    )
}

fn subject_column(input_sketch: Option<&TableSketch>) -> String {
    if let Some(sketch) = input_sketch {
        // Prefer an unqualified 'name' column, then a qualified '<t>.name', then
        // any column ending in 'name'.
        if sketch.columns.iter().any(|c| c.name == "name") {
            return "name".to_string();
        }
        if let Some(column) = sketch.columns.iter().find(|c| c.name.ends_with(".name")) {
            return column.name.clone();
        }
        if let Some(column) = sketch
            .columns
            .iter()
            .find(|c| c.name.to_lowercase().contains("name"))
        {
            return column.name.clone();
        }
    }
    "name".to_string()
}

fn decide_python(step: &LogicalStep, description: &str) -> (OperatorKind, Vec<String>, String) {
    let new_column = step.new_columns.first().cloned().unwrap_or_else(|| {
        if description.to_lowercase().contains("century") {
            "century".to_string()
        } else {
            "year".to_string()
        }
    });
    (
        OperatorKind::PythonUdf,
        vec![description.to_string(), new_column],
        "The step derives a new column from an existing string column, which the Python operator \
         does from a description."
            .to_string(),
    )
}

fn decide_selection(
    _step: &LogicalStep,
    quoted: &[String],
    lower: &str,
    input_sketch: Option<&TableSketch>,
) -> (OperatorKind, Vec<String>, String) {
    // Synthesized phrasing: "Select only the rows of the 'T' table where the
    // '<col>' column <op phrase> '<value>'."  quoted = [T, col, value].
    let (column, value) = match (quoted.get(1), quoted.get(2)) {
        (Some(column), Some(value)) => (column.clone(), value.clone()),
        _ => {
            // Free-form selection ("Select only paintings depicting Madonna and
            // Child"): use a column added by a previous extraction if there is
            // one (visible in the intermediate-table sketch).
            let column = input_sketch
                .and_then(|t| {
                    t.columns
                        .iter()
                        .find(|c| c.name.ends_with("_depicted") || c.name.ends_with("_game"))
                        .map(|c| c.name.clone())
                })
                .unwrap_or_else(|| "condition".to_string());
            (column, "yes".to_string())
        }
    };
    let column = qualify(input_sketch, &column);
    let op = if lower.contains("is at least") {
        ">="
    } else {
        "="
    };
    let rendered_value = if value.parse::<f64>().is_ok() {
        value.clone()
    } else {
        format!("'{value}'")
    };
    // "contains" phrasing (used by data-misunderstanding plans) maps to LIKE.
    let condition = if lower.contains(" contains ") {
        format!("{column} LIKE '%{value}%'")
    } else {
        format!("{column} {op} {rendered_value}")
    };
    (
        OperatorKind::SqlSelection,
        vec![condition],
        "The step keeps only rows satisfying a condition on an existing column, which is a \
         relational selection."
            .to_string(),
    )
}

fn decide_aggregation(
    step: &LogicalStep,
    quoted: &[String],
    lower: &str,
    input_sketch: Option<&TableSketch>,
) -> (OperatorKind, Vec<String>, String) {
    // Synthesized phrasings:
    //   "Group the 'T' table by 'g' and compute the <agg> of 'c'."       quoted = [T, g, c]
    //   "Group the 'T' table by 'g' and count the number of rows ..."    quoted = [T, g]
    //   "Compute the <agg> of the 'c' column in the 'T' table."          quoted = [c, T]
    //   "Count the number of rows in the 'T' table."                     quoted = [T]
    let grouped = lower.starts_with("group the");
    let table = step
        .inputs
        .first()
        .cloned()
        .or_else(|| {
            if grouped || lower.starts_with("count the number of rows") {
                quoted.first().cloned()
            } else {
                quoted.last().cloned()
            }
        })
        .unwrap_or_else(|| "result_table".to_string());
    let output_column = step
        .new_columns
        .first()
        .cloned()
        .unwrap_or_else(|| "value".to_string());
    let agg = if lower.contains("count the number of rows") {
        "COUNT(*)".to_string()
    } else {
        let func = if lower.contains("maximum") {
            "MAX"
        } else if lower.contains("minimum") {
            "MIN"
        } else if lower.contains("average") {
            "AVG"
        } else {
            "COUNT"
        };
        // The aggregated column: for grouped steps it is the quoted identifier
        // after the table and group column; for global steps it is the first.
        let target = if grouped {
            quoted.get(2).cloned()
        } else {
            quoted.first().cloned()
        }
        .unwrap_or_else(|| output_column.clone());
        if func == "COUNT" && target == output_column {
            "COUNT(*)".to_string()
        } else {
            format!("{func}({})", qualify(input_sketch, &target))
        }
    };

    let sql = if lower.contains(" by ") && grouped {
        let group_column = quoted.get(1).cloned().unwrap_or_else(|| "name".to_string());
        let group_q = qualify(input_sketch, &group_column);
        let group_alias = group_column
            .rsplit('.')
            .next()
            .unwrap_or(&group_column)
            .to_string();
        format!(
            "SELECT {group_q} AS {group_alias}, {agg} AS {output_column} FROM {table} GROUP BY {group_q}"
        )
    } else {
        format!("SELECT {agg} AS {output_column} FROM {table}")
    };
    (
        OperatorKind::SqlAggregation,
        vec![sql],
        "The step groups rows and computes an aggregate, which is a relational aggregation."
            .to_string(),
    )
}

fn decide_projection(
    step: &LogicalStep,
    quoted: &[String],
    input_sketch: Option<&TableSketch>,
) -> (OperatorKind, Vec<String>, String) {
    // "Keep only the 'a', 'b' columns of the 'T' table." — the last quoted span
    // is the table, the preceding ones are columns.
    let table = quoted
        .last()
        .cloned()
        .or_else(|| step.inputs.first().cloned())
        .unwrap_or_else(|| "result_table".to_string());
    let columns: Vec<String> = if quoted.len() > 1 {
        quoted[..quoted.len() - 1]
            .iter()
            .map(|c| {
                let q = qualify(input_sketch, c);
                let base = c.rsplit('.').next().unwrap_or(c);
                if q == *c {
                    q
                } else {
                    format!("{q} AS {base}")
                }
            })
            .collect()
    } else {
        vec!["*".to_string()]
    };
    let sql = format!("SELECT {} FROM {table}", columns.join(", "));
    (
        OperatorKind::Sql,
        vec![sql],
        "The step only projects columns, which plain SQL handles.".to_string(),
    )
}

fn decide_plot(quoted: &[String]) -> (OperatorKind, Vec<String>, String) {
    // "Plot the 'T' in a bar plot. The 'x' should be on the X-axis and the 'y'
    // on the Y-axis." — quoted = [T, x, y].
    let x = quoted.get(1).cloned().unwrap_or_else(|| "x".to_string());
    let y = quoted.get(2).cloned().unwrap_or_else(|| "y".to_string());
    (
        OperatorKind::Plot,
        vec!["bar".to_string(), x, y],
        "The user asked for a plot of the final result, so the Plot operator is used.".to_string(),
    )
}

/// Qualify a column against the input-table sketch: if the exact name is not a
/// column but a qualified variant (`<t>.<column>`) is, use the qualified name.
fn qualify(input_sketch: Option<&TableSketch>, column: &str) -> String {
    let Some(sketch) = input_sketch else {
        return column.to_string();
    };
    if sketch.columns.iter().any(|c| c.name == column) {
        return column.to_string();
    }
    if let Some(found) = sketch
        .columns
        .iter()
        .find(|c| c.name.ends_with(&format!(".{column}")))
    {
        return found.name.clone();
    }
    column.to_string()
}

fn between<'a>(text: &'a str, start: &str, end: &str) -> Option<&'a str> {
    let pos = text.find(start)? + start.len();
    let rest = &text[pos..];
    let stop = rest.find(end)?;
    Some(&rest[..stop])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ColumnSketch, PromptContext, PromptKind};

    fn context_with_sketch(name: &str, columns: Vec<(&str, &str)>) -> PromptContext {
        PromptContext {
            kind: PromptKind::Mapping,
            query: String::new(),
            tables: vec![],
            intermediate_tables: vec![TableSketch {
                name: name.into(),
                num_rows: 10,
                columns: columns
                    .into_iter()
                    .map(|(n, t)| ColumnSketch {
                        name: n.into(),
                        dtype: t.into(),
                    })
                    .collect(),
                description: String::new(),
                foreign_keys: vec![],
            }],
            relevant_columns: vec![],
            step: None,
            observations: vec![],
            retry_note: None,
            error: None,
        }
    }

    fn empty_context() -> PromptContext {
        PromptContext {
            kind: PromptKind::Mapping,
            query: String::new(),
            tables: vec![],
            intermediate_tables: vec![],
            relevant_columns: vec![],
            step: None,
            observations: vec![],
            retry_note: None,
            error: None,
        }
    }

    #[test]
    fn join_steps_map_to_sql_join() {
        let step = LogicalStep::new(
            1,
            "Join the 'paintings_metadata' and 'painting_images' tables on the 'img_path' column to combine the two tables.",
            vec!["paintings_metadata".into(), "painting_images".into()],
            "joined_table",
            vec![],
        );
        let decision = decide(&step, &empty_context());
        assert_eq!(decision.operator, OperatorKind::SqlJoin);
        assert_eq!(
            decision.arguments[0],
            "SELECT * FROM paintings_metadata JOIN painting_images ON paintings_metadata.img_path = painting_images.img_path"
        );
    }

    #[test]
    fn visual_extraction_maps_to_visual_qa_with_figure4_arguments() {
        let step = LogicalStep::new(
            2,
            "Extract the number of swords depicted in each image from the 'image' column in the 'joined_table' table.",
            vec!["joined_table".into()],
            "joined_table",
            vec!["num_swords".into()],
        );
        let decision = decide(&step, &empty_context());
        assert_eq!(decision.operator, OperatorKind::VisualQa);
        assert_eq!(
            decision.arguments,
            vec![
                "image",
                "num_swords",
                "How many swords are depicted?",
                "int"
            ]
        );
    }

    #[test]
    fn whether_depicted_maps_to_yes_no_question() {
        let step = LogicalStep::new(
            2,
            "Extract whether madonna and child is depicted in each image from the 'image' column in the 'joined_table' table.",
            vec!["joined_table".into()],
            "joined_table",
            vec!["madonna_and_child_depicted".into()],
        );
        let decision = decide(&step, &empty_context());
        assert_eq!(decision.operator, OperatorKind::VisualQa);
        assert_eq!(decision.arguments[2], "Is madonna and child depicted?");
        assert_eq!(decision.arguments[3], "str");
    }

    #[test]
    fn text_extraction_uses_a_question_template_with_the_right_subject_column() {
        let step = LogicalStep::new(
            3,
            "Extract the number of points scored by each team from the 'report' column in the 'final_joined_table' table.",
            vec!["final_joined_table".into()],
            "final_joined_table",
            vec!["points_scored".into()],
        );
        // After the join the name column is only available in qualified form.
        let context = context_with_sketch(
            "final_joined_table",
            vec![
                ("teams.name", "str"),
                ("game_id", "int"),
                ("report", "TEXT"),
            ],
        );
        let decision = decide(&step, &context);
        assert_eq!(decision.operator, OperatorKind::TextQa);
        assert_eq!(decision.arguments[0], "report");
        assert_eq!(decision.arguments[1], "points_scored");
        assert_eq!(
            decision.arguments[2],
            "How many points did <teams.name> score?"
        );
    }

    #[test]
    fn century_extraction_maps_to_python() {
        let step = LogicalStep::new(
            2,
            "Extract the century from the dates in the 'inception' column of the 'joined_table' table.",
            vec!["joined_table".into()],
            "joined_table",
            vec!["century".into()],
        );
        let decision = decide(&step, &empty_context());
        assert_eq!(decision.operator, OperatorKind::PythonUdf);
        assert_eq!(decision.arguments[1], "century");
        assert!(decision.arguments[0].contains("inception"));
    }

    #[test]
    fn selection_builds_a_condition_using_observed_columns() {
        let step = LogicalStep::new(
            4,
            "Select only the rows of the 'joined_table' table where the 'madonna_and_child_depicted' column equals 'yes'.",
            vec!["joined_table".into()],
            "filtered_table",
            vec![],
        );
        let decision = decide(&step, &empty_context());
        assert_eq!(decision.operator, OperatorKind::SqlSelection);
        assert_eq!(decision.arguments[0], "madonna_and_child_depicted = 'yes'");

        // Free-form selection without quoted column falls back to the
        // *_depicted column visible in the intermediate sketch (Figure 2).
        let step = LogicalStep::new(
            4,
            "Select only the paintings depicting Madonna and Child.",
            vec!["joined_table".into()],
            "filtered_table",
            vec![],
        );
        let context = context_with_sketch(
            "joined_table",
            vec![("title", "str"), ("madonna_depicted", "str")],
        );
        let decision = decide(&step, &context);
        assert_eq!(decision.arguments[0], "madonna_depicted = 'yes'");
    }

    #[test]
    fn numeric_selections_do_not_quote_the_value() {
        let step = LogicalStep::new(
            3,
            "Select only the rows of the 'joined_table' table where the 'num_swords' column is at least '2'.",
            vec!["joined_table".into()],
            "filtered_table",
            vec![],
        );
        let decision = decide(&step, &empty_context());
        assert_eq!(decision.arguments[0], "num_swords >= 2");
    }

    #[test]
    fn grouped_aggregation_generates_group_by_sql_with_qualification() {
        let step = LogicalStep::new(
            4,
            "Group the 'final_joined_table' table by 'name' and compute the maximum of 'points_scored'.",
            vec!["final_joined_table".into()],
            "result_table",
            vec!["maximum_points_scored".into()],
        );
        let context = context_with_sketch(
            "final_joined_table",
            vec![("teams.name", "str"), ("points_scored", "int")],
        );
        let decision = decide(&step, &context);
        assert_eq!(decision.operator, OperatorKind::SqlAggregation);
        assert_eq!(
            decision.arguments[0],
            "SELECT teams.name AS name, MAX(points_scored) AS maximum_points_scored FROM final_joined_table GROUP BY teams.name"
        );
    }

    #[test]
    fn count_rows_aggregations() {
        let step = LogicalStep::new(
            2,
            "Count the number of rows in the 'filtered_table' table.",
            vec!["filtered_table".into()],
            "result_table",
            vec!["num_paintings".into()],
        );
        let decision = decide(&step, &empty_context());
        assert_eq!(
            decision.arguments[0],
            "SELECT COUNT(*) AS num_paintings FROM filtered_table"
        );

        let step = LogicalStep::new(
            3,
            "Group the 'filtered_table' table by 'century' and count the number of rows in each group.",
            vec!["filtered_table".into()],
            "result_table",
            vec!["num_paintings".into()],
        );
        let decision = decide(&step, &empty_context());
        assert_eq!(
            decision.arguments[0],
            "SELECT century AS century, COUNT(*) AS num_paintings FROM filtered_table GROUP BY century"
        );
    }

    #[test]
    fn plot_steps_extract_kind_and_axes() {
        let step = LogicalStep::new(
            6,
            "Plot the 'result_table' in a bar plot. The 'century' should be on the X-axis and the 'num_paintings' on the Y-axis.",
            vec!["result_table".into()],
            "plot",
            vec![],
        );
        let decision = decide(&step, &empty_context());
        assert_eq!(decision.operator, OperatorKind::Plot);
        assert_eq!(decision.arguments, vec!["bar", "century", "num_paintings"]);
    }

    #[test]
    fn projection_steps_generate_select_lists() {
        let step = LogicalStep::new(
            2,
            "Keep only the 'title', 'artist' columns of the 'filtered_table' table.",
            vec!["filtered_table".into()],
            "result_table",
            vec![],
        );
        let decision = decide(&step, &empty_context());
        assert_eq!(decision.operator, OperatorKind::Sql);
        assert_eq!(
            decision.arguments[0],
            "SELECT title, artist FROM filtered_table"
        );
    }

    #[test]
    fn unknown_steps_fall_back_to_pass_through_sql() {
        let step = LogicalStep::new(
            1,
            "Keep all rows of the 'teams' table as the result.",
            vec!["teams".into()],
            "result_table",
            vec![],
        );
        let decision = decide(&step, &empty_context());
        assert_eq!(decision.operator, OperatorKind::Sql);
        assert!(decision.arguments[0].contains("FROM"));
    }

    #[test]
    fn quoted_span_extraction() {
        assert_eq!(
            quoted_spans("Join the 'a' and 'b' tables on the 'k' column"),
            vec!["a", "b", "k"]
        );
        assert!(quoted_spans("no quotes here").is_empty());
    }
}
