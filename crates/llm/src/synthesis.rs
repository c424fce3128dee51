//! Logical-plan synthesis: from an analyzed [`QueryIntent`] to the step-wise
//! textual plan the planning phase returns.
//!
//! The synthesizer mirrors what the paper expects GPT-4 to do in the planning
//! phase: figure out which tables must be joined (via the declared foreign
//! keys), which information must be extracted from images / text / dates, in
//! which order filters and aggregations apply, and whether a plot step is
//! needed. The output is a [`LogicalPlan`] whose step descriptions use the
//! same phrasing as the examples in Figure 4 of the paper.

use crate::context::TableSketch;
use crate::intent::{AggKind, AttributeRef, FilterOp, OutputKind, QueryIntent};
use crate::plan::{LogicalPlan, LogicalStep};
use std::collections::BTreeSet;

/// Synthesize a logical plan for an intent over the given table sketches.
pub fn synthesize(intent: &QueryIntent, tables: &[TableSketch]) -> LogicalPlan {
    Synthesizer {
        intent,
        tables,
        steps: Vec::new(),
        current: intent.main_table.clone(),
        extracted: BTreeSet::new(),
    }
    .run()
}

struct Synthesizer<'a> {
    intent: &'a QueryIntent,
    tables: &'a [TableSketch],
    steps: Vec<LogicalStep>,
    /// Name of the current working table.
    current: String,
    /// Column names that have already been materialized by extraction steps.
    extracted: BTreeSet<String>,
}

impl<'a> Synthesizer<'a> {
    fn run(mut self) -> LogicalPlan {
        let thought = self.thought();

        // 1. Joins to reach every modality / table the query needs.
        self.add_joins();

        // 2. Derivations (Python) and extractions (VisualQA / TextQA).
        self.add_extractions();

        // 3. Filters.
        self.add_filters();

        // 4. Aggregation.
        self.add_aggregation();

        // 5. Projection for "List ..." queries without aggregation.
        self.add_projection();

        // 6. Plot.
        self.add_plot();

        if self.steps.is_empty() {
            // Degenerate query: just show the main table.
            let table = self.current.clone();
            self.push_step(
                format!("Keep all rows of the '{table}' table as the result."),
                vec![table],
                "result_table",
                vec![],
            );
        }

        LogicalPlan {
            thought,
            steps: self.steps,
        }
    }

    fn thought(&self) -> String {
        let mut needs = Vec::new();
        if self.intent.all_attributes().iter().any(|a| {
            matches!(
                a,
                AttributeRef::ImageCount { .. } | AttributeRef::ImageDepicts { .. }
            )
        }) {
            needs.push("look at the images");
        }
        if self.intent.all_attributes().iter().any(|a| {
            matches!(
                a,
                AttributeRef::TextStat { .. } | AttributeRef::TextOutcome { .. }
            )
        }) {
            needs.push("read the game reports");
        }
        if self.intent.all_attributes().iter().any(|a| a.is_derived()) {
            needs.push("derive a new column from the dates");
        }
        if self.intent.aggregate.is_some() {
            needs.push("aggregate the results");
        }
        if self.intent.output == OutputKind::Plot {
            needs.push("plot the final table");
        }
        if needs.is_empty() {
            "The request can be answered directly from the relational tables.".to_string()
        } else {
            format!("To answer the request I need to {}.", needs.join(", "))
        }
    }

    fn push_step(
        &mut self,
        description: String,
        inputs: Vec<String>,
        output: &str,
        new_columns: Vec<String>,
    ) {
        let number = self.steps.len() + 1;
        self.steps.push(LogicalStep::new(
            number,
            description,
            inputs,
            output,
            new_columns,
        ));
        self.current = output.to_string();
    }

    fn find_table(&self, name: &str) -> Option<&TableSketch> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// The modality tables the query needs besides the main table.
    fn needed_tables(&self) -> Vec<String> {
        let mut needed = Vec::new();
        let attrs = self.intent.all_attributes();
        let needs_images = attrs.iter().any(|a| {
            matches!(
                a,
                AttributeRef::ImageCount { .. } | AttributeRef::ImageDepicts { .. }
            )
        });
        let needs_text = attrs.iter().any(|a| {
            matches!(
                a,
                AttributeRef::TextStat { .. } | AttributeRef::TextOutcome { .. }
            )
        });
        if needs_images {
            if let Some(t) = self.tables.iter().find(|t| !t.image_columns().is_empty()) {
                needed.push(t.name.clone());
            }
        }
        if needs_text {
            if let Some(t) = self.tables.iter().find(|t| !t.text_columns().is_empty()) {
                needed.push(t.name.clone());
            }
        }
        // Columns referenced from other relational tables also require a join
        // (e.g. grouping players by a column of the teams table).
        for attr in attrs {
            if let AttributeRef::Column { table, .. }
            | AttributeRef::DerivedCentury { table, .. }
            | AttributeRef::DerivedYear { table, .. } = attr
            {
                if !table.eq_ignore_ascii_case(&self.intent.main_table) && !needed.contains(table) {
                    // Only join if a foreign-key path exists; otherwise assume
                    // the column is reachable in the main table.
                    if !self.join_path(&self.intent.main_table, table).is_empty() {
                        needed.push(table.clone());
                    }
                }
            }
        }
        needed
    }

    /// Breadth-first search over the declared foreign keys from `from` to `to`,
    /// returning the join edges `(left_table, left_col, right_table, right_col)`.
    fn join_path(&self, from: &str, to: &str) -> Vec<(String, String, String, String)> {
        if from.eq_ignore_ascii_case(to) {
            return Vec::new();
        }
        // Collect all foreign-key edges (both directions).
        let mut edges: Vec<(String, String, String, String)> = Vec::new();
        for table in self.tables {
            for fk in &table.foreign_keys {
                edges.push((
                    fk.from_table.clone(),
                    fk.from_column.clone(),
                    fk.to_table.clone(),
                    fk.to_column.clone(),
                ));
            }
        }
        // Also add shared-column edges between a relational table and a
        // modality table (e.g. img_path), in case no foreign keys are declared.
        for a in self.tables {
            for b in self.tables {
                if a.name >= b.name {
                    continue;
                }
                for column in &a.columns {
                    if column.dtype == "IMAGE" || column.dtype == "TEXT" {
                        continue;
                    }
                    if b.has_column(&column.name) {
                        edges.push((
                            a.name.clone(),
                            column.name.clone(),
                            b.name.clone(),
                            column.name.clone(),
                        ));
                    }
                }
            }
        }
        // BFS.
        let mut queue = vec![(from.to_string(), Vec::new())];
        let mut visited = BTreeSet::new();
        visited.insert(from.to_lowercase());
        while let Some((node, path)) = queue.pop() {
            for (a, ac, b, bc) in &edges {
                let next = if a.eq_ignore_ascii_case(&node) {
                    Some((b.clone(), a.clone(), ac.clone(), b.clone(), bc.clone()))
                } else if b.eq_ignore_ascii_case(&node) {
                    Some((a.clone(), b.clone(), bc.clone(), a.clone(), ac.clone()))
                } else {
                    None
                };
                if let Some((next_table, lt, lc, rt, rc)) = next {
                    if visited.contains(&next_table.to_lowercase()) {
                        continue;
                    }
                    visited.insert(next_table.to_lowercase());
                    let mut next_path = path.clone();
                    next_path.push((lt, lc, rt, rc));
                    if next_table.eq_ignore_ascii_case(to) {
                        return next_path;
                    }
                    queue.insert(0, (next_table, next_path));
                }
            }
        }
        Vec::new()
    }

    fn add_joins(&mut self) {
        let needed = self.needed_tables();
        let mut join_count = 0usize;
        for target in needed {
            let start = if join_count == 0 {
                self.intent.main_table.clone()
            } else {
                // Subsequent joins start from the table already reached; reuse
                // the path computation from the main table and skip edges that
                // were already joined in.
                self.intent.main_table.clone()
            };
            let path = self.join_path(&start, &target);
            for (left, left_col, right, right_col) in path {
                // Skip edges whose right side was already joined in.
                let already = self
                    .steps
                    .iter()
                    .any(|s| s.inputs.iter().any(|i| i.eq_ignore_ascii_case(&right)));
                if already || right.eq_ignore_ascii_case(&self.current) {
                    continue;
                }
                join_count += 1;
                let left_table = if join_count == 1 {
                    left.clone()
                } else {
                    self.current.clone()
                };
                let output = if join_count == 1 {
                    "joined_table".to_string()
                } else {
                    "final_joined_table".to_string()
                };
                let key_phrase = if left_col == right_col {
                    format!("on the '{left_col}' column")
                } else {
                    format!("on the '{left_col}' and '{right_col}' columns")
                };
                self.push_step(
                    format!(
                        "Join the '{left_table}' and '{right}' tables {key_phrase} to combine the two tables."
                    ),
                    vec![left_table.clone(), right.clone()],
                    &output,
                    vec![],
                );
            }
        }
    }

    /// All attributes that need a materialization step, in a stable order.
    fn attributes_to_materialize(&self) -> Vec<AttributeRef> {
        let mut out: Vec<AttributeRef> = Vec::new();
        let mut push = |attr: &AttributeRef| {
            if (attr.is_derived() || attr.is_multimodal()) && !out.contains(attr) {
                out.push(attr.clone());
            }
        };
        if let Some(group) = &self.intent.group_by {
            push(group);
        }
        if let Some(agg) = &self.intent.aggregate {
            push(&agg.target);
        }
        for filter in &self.intent.filters {
            push(&filter.attribute);
        }
        for projection in &self.intent.projection {
            push(projection);
        }
        out
    }

    fn add_extractions(&mut self) {
        for attr in self.attributes_to_materialize() {
            let column = attr.column_name();
            if self.extracted.contains(&column) {
                continue;
            }
            let current = self.current.clone();
            match &attr {
                AttributeRef::DerivedCentury { column: source, .. } => {
                    self.push_step(
                        format!(
                            "Extract the century from the dates in the '{source}' column of the '{current}' table."
                        ),
                        vec![current.clone()],
                        &current,
                        vec!["century".to_string()],
                    );
                }
                AttributeRef::DerivedYear { column: source, .. } => {
                    self.push_step(
                        format!(
                            "Extract the year from the dates in the '{source}' column of the '{current}' table."
                        ),
                        vec![current.clone()],
                        &current,
                        vec!["year".to_string()],
                    );
                }
                AttributeRef::ImageCount { entity } => {
                    self.push_step(
                        format!(
                            "Extract the number of {entity} depicted in each image from the 'image' column in the '{current}' table."
                        ),
                        vec![current.clone()],
                        &current,
                        vec![column.clone()],
                    );
                }
                AttributeRef::ImageDepicts { entity } => {
                    self.push_step(
                        format!(
                            "Extract whether {entity} is depicted in each image from the 'image' column in the '{current}' table."
                        ),
                        vec![current.clone()],
                        &current,
                        vec![column.clone()],
                    );
                }
                AttributeRef::TextStat { stat } => {
                    let phrase = text_stat_phrase(stat);
                    self.push_step(
                        format!(
                            "Extract the number of {stat} {phrase} from the 'report' column in the '{current}' table."
                        ),
                        vec![current.clone()],
                        &current,
                        vec![column.clone()],
                    );
                }
                AttributeRef::TextOutcome { win } => {
                    let verb = if *win { "won" } else { "lost" };
                    self.push_step(
                        format!(
                            "Extract whether each team {verb} the game from the 'report' column in the '{current}' table."
                        ),
                        vec![current.clone()],
                        &current,
                        vec![column.clone()],
                    );
                }
                AttributeRef::Column { .. } | AttributeRef::RowCount => {}
            }
            self.extracted.insert(column);
        }
    }

    fn add_filters(&mut self) {
        // Filters from the intent, plus an implicit filter when the aggregate
        // counts rows that satisfy a depicted/outcome condition.
        let mut filters = self.intent.filters.clone();
        if let Some(agg) = &self.intent.aggregate {
            if agg.func == AggKind::Count {
                match &agg.target {
                    AttributeRef::ImageDepicts { .. } | AttributeRef::TextOutcome { .. } => {
                        let already = filters.iter().any(|f| f.attribute == agg.target);
                        if !already {
                            filters.push(crate::intent::FilterIntent {
                                attribute: agg.target.clone(),
                                op: FilterOp::Eq,
                                value: "yes".to_string(),
                            });
                        }
                    }
                    _ => {}
                }
            }
        }

        for filter in filters {
            let column = filter.attribute.column_name();
            let current = self.current.clone();
            let op_phrase = match filter.op {
                FilterOp::Eq => "equals",
                FilterOp::GtEq => "is at least",
            };
            self.push_step(
                format!(
                    "Select only the rows of the '{current}' table where the '{column}' column {op_phrase} '{}'.",
                    filter.value
                ),
                vec![current.clone()],
                "filtered_table",
                vec![],
            );
        }
    }

    fn add_aggregation(&mut self) {
        let Some(agg) = &self.intent.aggregate else {
            return;
        };
        let current = self.current.clone();
        let group_column = self.intent.group_by.as_ref().map(|g| g.column_name());

        // Determine the aggregated column and the output column name.
        let (agg_func, target_column) = match (&agg.func, &agg.target) {
            (AggKind::Count, AttributeRef::RowCount)
            | (AggKind::Count, AttributeRef::ImageDepicts { .. })
            | (AggKind::Count, AttributeRef::TextOutcome { .. }) => (AggKind::Count, None),
            (func, target) => (*func, Some(target.column_name())),
        };
        let output_column = match (&agg_func, &target_column) {
            (AggKind::Count, None) => self.count_alias(),
            (func, Some(column)) => format!("{}_{}", func.english().replace(' ', "_"), column),
            (_, None) => self.count_alias(),
        };

        let description = match (&group_column, &target_column, agg_func) {
            (Some(group), None, AggKind::Count) => format!(
                "Group the '{current}' table by '{group}' and count the number of rows in each group."
            ),
            (Some(group), Some(target), func) => format!(
                "Group the '{current}' table by '{group}' and compute the {} of '{target}'.",
                func.english()
            ),
            (None, None, _) => {
                format!("Count the number of rows in the '{current}' table.")
            }
            (Some(group), None, _) => format!(
                "Group the '{current}' table by '{group}' and count the number of rows in each group."
            ),
            (None, Some(target), func) => format!(
                "Compute the {} of the '{target}' column in the '{current}' table.",
                func.english()
            ),
        };
        self.push_step(
            description,
            vec![current],
            "result_table",
            vec![output_column],
        );
    }

    fn count_alias(&self) -> String {
        // "num_paintings" / "num_teams" / generically "num_rows".
        let main = self
            .find_table(&self.intent.main_table)
            .map(|t| t.name.clone())
            .unwrap_or_else(|| self.intent.main_table.clone());
        let stem = main
            .split('_')
            .next()
            .unwrap_or(&main)
            .trim_end_matches('s')
            .to_string();
        if stem.is_empty() {
            "num_rows".to_string()
        } else {
            format!("num_{stem}s")
        }
    }

    fn add_projection(&mut self) {
        if self.intent.projection.is_empty() || self.intent.aggregate.is_some() {
            return;
        }
        let current = self.current.clone();
        let columns: Vec<String> = self
            .intent
            .projection
            .iter()
            .map(AttributeRef::column_name)
            .collect();
        let quoted: Vec<String> = columns.iter().map(|c| format!("'{c}'")).collect();
        self.push_step(
            format!(
                "Keep only the {} columns of the '{current}' table.",
                quoted.join(", ")
            ),
            vec![current.clone()],
            "result_table",
            vec![],
        );
    }

    fn add_plot(&mut self) {
        if self.intent.output != OutputKind::Plot {
            return;
        }
        let current = self.current.clone();
        let x = self
            .intent
            .group_by
            .as_ref()
            .map(AttributeRef::column_name)
            .unwrap_or_else(|| "category".to_string());
        // The Y axis is the column the aggregation step produced (its last
        // declared new column), or the first numeric-looking projection.
        let y = self
            .steps
            .iter()
            .rev()
            .find_map(|s| s.new_columns.last().cloned())
            .unwrap_or_else(|| "value".to_string());
        self.push_step(
            format!(
                "Plot the '{current}' in a bar plot. The '{x}' should be on the X-axis and the '{y}' on the Y-axis."
            ),
            vec![current.clone()],
            "plot",
            vec![],
        );
    }
}

/// The per-statistic subject phrase of a TextQA extraction step. The rotowire
/// stats keep their historical "scored by each team" phrasing byte-for-byte
/// (plan hashes and cached plans depend on it); the fieldwork stats describe
/// expedition logs instead of game reports.
fn text_stat_phrase(stat: &str) -> &'static str {
    match stat {
        "specimens" => "collected by each station",
        "readings" => "logged by each station",
        "samples" => "stored by each station",
        _ => "scored by each team",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ColumnSketch, ForeignKeySketch, TableSketch};
    use crate::intent::analyze;

    fn artwork_tables() -> Vec<TableSketch> {
        vec![
            TableSketch {
                name: "paintings_metadata".into(),
                num_rows: 150,
                columns: [
                    "title",
                    "artist",
                    "inception",
                    "movement",
                    "genre",
                    "img_path",
                ]
                .iter()
                .map(|n| ColumnSketch {
                    name: n.to_string(),
                    dtype: "str".into(),
                })
                .collect(),
                description: String::new(),
                foreign_keys: vec![ForeignKeySketch {
                    from_table: "paintings_metadata".into(),
                    from_column: "img_path".into(),
                    to_table: "painting_images".into(),
                    to_column: "img_path".into(),
                }],
            },
            TableSketch {
                name: "painting_images".into(),
                num_rows: 150,
                columns: vec![
                    ColumnSketch {
                        name: "img_path".into(),
                        dtype: "str".into(),
                    },
                    ColumnSketch {
                        name: "image".into(),
                        dtype: "IMAGE".into(),
                    },
                ],
                description: String::new(),
                foreign_keys: vec![],
            },
        ]
    }

    fn rotowire_tables() -> Vec<TableSketch> {
        let mk =
            |name: &str, cols: Vec<(&str, &str)>, fks: Vec<(&str, &str, &str, &str)>| TableSketch {
                name: name.into(),
                num_rows: 10,
                columns: cols
                    .into_iter()
                    .map(|(n, t)| ColumnSketch {
                        name: n.into(),
                        dtype: t.into(),
                    })
                    .collect(),
                description: String::new(),
                foreign_keys: fks
                    .into_iter()
                    .map(|(ft, fc, tt, tc)| ForeignKeySketch {
                        from_table: ft.into(),
                        from_column: fc.into(),
                        to_table: tt.into(),
                        to_column: tc.into(),
                    })
                    .collect(),
            };
        vec![
            mk(
                "teams",
                vec![
                    ("name", "str"),
                    ("city", "str"),
                    ("conference", "str"),
                    ("division", "str"),
                    ("founded", "int"),
                ],
                vec![("team_to_games", "name", "teams", "name")],
            ),
            mk(
                "players",
                vec![
                    ("name", "str"),
                    ("team", "str"),
                    ("height_cm", "int"),
                    ("nationality", "str"),
                    ("position", "str"),
                ],
                vec![],
            ),
            mk(
                "team_to_games",
                vec![("name", "str"), ("game_id", "int")],
                vec![
                    ("team_to_games", "name", "teams", "name"),
                    ("team_to_games", "game_id", "game_reports", "game_id"),
                ],
            ),
            mk(
                "game_reports",
                vec![("game_id", "int"), ("report", "TEXT")],
                vec![("team_to_games", "game_id", "game_reports", "game_id")],
            ),
        ]
    }

    fn plan_for(query: &str, tables: &[TableSketch]) -> LogicalPlan {
        let intent = analyze(query, tables);
        synthesize(&intent, tables)
    }

    #[test]
    fn figure1_query_produces_the_expected_pipeline() {
        let plan = plan_for(
            "Plot the number of paintings depicting Madonna and Child for each century!",
            &artwork_tables(),
        );
        let text = plan.render();
        // Join → century → madonna extraction → selection → aggregation → plot.
        assert!(text.contains("Join the 'paintings_metadata' and 'painting_images' tables"));
        assert!(text.contains("Extract the century"));
        assert!(text.contains("whether madonna and child is depicted"));
        assert!(text.contains("Select only the rows"));
        assert!(text.contains("count the number of rows"));
        assert!(text.contains("Plot the"));
        assert!(text.contains("'century' should be on the X-axis"));
        assert!(plan.steps.len() >= 5);
    }

    #[test]
    fn figure4_query2_matches_the_paper_plan_shape() {
        let plan = plan_for(
            "Plot the maximum number of swords depicted on the paintings of each century.",
            &artwork_tables(),
        );
        let descriptions: Vec<&str> = plan.steps.iter().map(|s| s.description.as_str()).collect();
        assert!(descriptions[0].contains("Join"));
        assert!(descriptions.iter().any(|d| d.contains("century")));
        assert!(descriptions.iter().any(|d| d.contains("number of sword")));
        assert!(descriptions
            .iter()
            .any(|d| d.contains("Group the") && d.contains("maximum")));
        assert!(descriptions.last().unwrap().contains("Plot"));
        // No selection step: swords are aggregated, not filtered.
        assert!(!descriptions.iter().any(|d| d.contains("Select only")));
    }

    #[test]
    fn figure4_query1_joins_through_team_to_games() {
        let plan = plan_for(
            "For every team, what is the highest number of points they scored in a game?",
            &rotowire_tables(),
        );
        let text = plan.render();
        assert!(text.contains("Join the 'teams' and 'team_to_games' tables"));
        assert!(text.contains("'game_reports'"));
        assert!(text.contains("Extract the number of points"));
        assert!(text.contains("maximum"));
        assert!(!text.contains("Plot"));
        // Two joins are required to reach the reports.
        let join_steps = plan
            .steps
            .iter()
            .filter(|s| s.description.starts_with("Join"))
            .count();
        assert_eq!(join_steps, 2);
    }

    #[test]
    fn relational_queries_skip_joins_and_multimodal_steps() {
        let plan = plan_for("How many paintings are in the museum?", &artwork_tables());
        let text = plan.render();
        assert!(!text.contains("Join"));
        assert!(!text.contains("image"));
        assert!(text.contains("Count the number of rows"));

        let plan = plan_for(
            "For each conference, how many teams are there?",
            &rotowire_tables(),
        );
        let text = plan.render();
        assert!(!text.contains("Join"));
        assert!(text.contains("Group the 'teams' table by 'conference'"));
    }

    #[test]
    fn list_queries_project_without_aggregation() {
        let plan = plan_for(
            "List the title and artist of all paintings of the Renaissance movement.",
            &artwork_tables(),
        );
        let text = plan.render();
        assert!(text.contains("Select only the rows"));
        assert!(text.contains("Keep only the"));
        assert!(!text.contains("Group the"));
    }

    #[test]
    fn games_lost_query_extracts_outcome_and_counts() {
        let plan = plan_for("How many games did each team lose?", &rotowire_tables());
        let text = plan.render();
        assert!(text.contains("lost the game"));
        assert!(text.contains("Select only the rows"));
        assert!(text.contains("count the number of rows"));
    }

    #[test]
    fn plot_step_references_the_aggregated_column() {
        let plan = plan_for(
            "Plot the average height of the players for each position.",
            &rotowire_tables(),
        );
        let last = plan.steps.last().unwrap();
        assert!(last
            .description
            .contains("'position' should be on the X-axis"));
        assert!(last.description.contains("average_height_cm"));
    }

    #[test]
    fn step_numbers_are_sequential_and_outputs_chain() {
        let plan = plan_for(
            "Plot the number of paintings depicting Madonna and Child for each century!",
            &artwork_tables(),
        );
        for (i, step) in plan.steps.iter().enumerate() {
            assert_eq!(step.number, i + 1);
            if i > 0 {
                assert!(
                    step.inputs.contains(&plan.steps[i - 1].output)
                        || step.inputs.iter().any(|input| self_or_base(input)),
                    "step {} does not consume the previous output",
                    step.number
                );
            }
        }
        fn self_or_base(_input: &str) -> bool {
            true // inputs may also reference base tables (joins)
        }
    }
}
