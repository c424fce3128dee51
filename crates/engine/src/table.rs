//! In-memory columnar tables with `Arc`-shared columns.
//!
//! Tables are the unit of data that flows through CAESURA's physical plans:
//! every operator consumes one or more tables and produces a new table. Since
//! the interleaved planner (§3.1 of the paper) re-executes operators after
//! every mapping step, tables are stored column-oriented — one typed
//! [`Column`] per schema field, each behind an [`Arc`] — so projections,
//! catalog lookups, and intermediate results share column data zero-copy
//! instead of deep-cloning rows.
//!
//! Row-oriented consumers (prompt summaries, observations, the perception
//! operators, tests) use the [`RowRef`] view returned by [`Table::rows`],
//! which materializes cells lazily from the underlying columns.
//!
//! Tables also know how to describe themselves to the language model
//! (`prompt_summary`, example values, observation strings).

use crate::column::{Column, ColumnBuilder};
use crate::error::{EngineError, EngineResult};
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// A materialized row: an ordered vector of values matching the table schema.
pub type Row = Vec<Value>;

/// An immutable, in-memory, column-oriented table.
///
/// Cloning a `Table` is cheap: it bumps one `Arc` per column and copies the
/// name/schema metadata, never the cell data.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Arc<Column>>,
    num_rows: usize,
    description: Option<String>,
}

impl PartialEq for Table {
    /// Logical equality: same name, schema, and cell values (`NULL` equals
    /// `NULL` here, matching the previous row-derived implementation).
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.schema == other.schema
            && self.num_rows == other.num_rows
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| Arc::ptr_eq(a, b) || columns_logically_equal(a, b))
    }
}

fn columns_logically_equal(a: &Column, b: &Column) -> bool {
    a.len() == b.len() && (0..a.len()).all(|i| a.get(i) == b.get(i))
}

/// A lightweight view of one table row, materializing cells on demand.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    table: &'a Table,
    index: usize,
}

impl<'a> RowRef<'a> {
    /// The row index inside the table.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.table.num_columns()
    }

    /// Whether the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the cell in column `col` (string payloads are Arc-shared).
    #[inline]
    pub fn get(&self, col: usize) -> Value {
        self.table.columns[col].get(self.index)
    }

    /// Whether the cell in column `col` is NULL.
    pub fn is_null(&self, col: usize) -> bool {
        !self.table.columns[col].is_valid(self.index)
    }

    /// Materialize the whole row.
    pub fn to_vec(&self) -> Row {
        (0..self.len()).map(|c| self.get(c)).collect()
    }

    /// Iterate over the row's cells.
    pub fn values(&self) -> impl Iterator<Item = Value> + 'a {
        let table = self.table;
        let index = self.index;
        (0..table.num_columns()).map(move |c| table.columns[c].get(index))
    }
}

/// Iterator over the rows of a table, yielding [`RowRef`] views.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    table: &'a Table,
    next: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = RowRef<'a>;

    fn next(&mut self) -> Option<RowRef<'a>> {
        if self.next < self.table.num_rows {
            let row = RowRef {
                table: self.table,
                index: self.next,
            };
            self.next += 1;
            Some(row)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.table.num_rows - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl Table {
    /// Create a table from rows, validating that every row matches the schema
    /// arity. The rows are transposed into typed columns.
    pub fn new(name: impl Into<String>, schema: Schema, rows: Vec<Row>) -> EngineResult<Self> {
        // Track the row count independently of the builders so a degenerate
        // zero-column schema still reports its rows.
        let num_rows = rows.len();
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::with_capacity(f.data_type, num_rows))
            .collect();
        for (i, row) in rows.into_iter().enumerate() {
            if row.len() != schema.len() {
                return Err(EngineError::ArityMismatch {
                    expected: schema.len(),
                    found: row.len(),
                    row: i,
                });
            }
            for (builder, value) in builders.iter_mut().zip(row) {
                builder.push(value);
            }
        }
        Ok(Table {
            name: name.into(),
            schema,
            // Ingest is the one place low-cardinality string columns get
            // dictionary-encoded (`CAESURA_DICT_ENCODE`); operators preserve
            // whatever representation they are handed.
            columns: builders
                .into_iter()
                .map(|b| crate::dict::maybe_encode(Arc::new(b.finish())))
                .collect(),
            num_rows,
            description: None,
        })
    }

    /// Create a table directly from columns (the zero-copy constructor used by
    /// the vectorized operators). Columns must all have the same length and
    /// match the schema arity.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Arc<Column>>,
    ) -> EngineResult<Self> {
        if columns.len() != schema.len() {
            return Err(EngineError::schema(format!(
                "table has {} columns but the schema declares {}",
                columns.len(),
                schema.len()
            )));
        }
        let num_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        if let Some(bad) = columns.iter().find(|c| c.len() != num_rows) {
            return Err(EngineError::schema(format!(
                "column length mismatch: expected {} rows, found a column with {}",
                num_rows,
                bad.len()
            )));
        }
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            num_rows,
            description: None,
        })
    }

    /// Create an empty table with the given schema.
    pub fn empty(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Arc::new(Column::empty(f.data_type)))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            num_rows: 0,
            description: None,
        }
    }

    /// Attach a human-readable description (rendered into prompts).
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = Some(description.into());
        self
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table (used when operators produce derived tables). Cheap:
    /// column data stays shared.
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Optional description.
    pub fn description(&self) -> Option<&str> {
        self.description.as_deref()
    }

    /// The `Arc`-shared columns in schema order.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// The column at a schema position.
    pub fn column_at(&self, index: usize) -> Option<&Arc<Column>> {
        self.columns.get(index)
    }

    /// Resolve a column by name and return its `Arc`-shared storage
    /// (zero-copy; bump the `Arc` to keep it).
    pub fn column_data(&self, column: &str) -> EngineResult<&Arc<Column>> {
        let idx = self.schema.resolve(column)?;
        Ok(&self.columns[idx])
    }

    /// Iterate over rows as lightweight [`RowRef`] views.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            table: self,
            next: 0,
        }
    }

    /// Iterate over rows (alias of [`Table::rows`]).
    pub fn iter(&self) -> Rows<'_> {
        self.rows()
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.schema.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Materialize a cell by row and column index.
    pub fn cell(&self, row: usize, col: usize) -> Option<Value> {
        if row < self.num_rows {
            self.columns.get(col).map(|c| c.get(row))
        } else {
            None
        }
    }

    /// Materialize the value of a named column in a given row.
    pub fn value(&self, row: usize, column: &str) -> EngineResult<Value> {
        let idx = self.schema.resolve(column)?;
        if row >= self.num_rows {
            return Err(EngineError::execution(format!(
                "row index {row} out of bounds"
            )));
        }
        Ok(self.columns[idx].get(row))
    }

    /// Materialize an entire column by name.
    pub fn column(&self, column: &str) -> EngineResult<Vec<Value>> {
        Ok(self.column_data(column)?.to_values())
    }

    /// Materialize all rows.
    pub fn to_rows(&self) -> Vec<Row> {
        self.rows().map(|r| r.to_vec()).collect()
    }

    /// Gather the rows at `indices` into a new table (the "take" kernel);
    /// all metadata is preserved. Taking every row in order shares the
    /// columns instead of copying them (see
    /// [`Selection`](crate::parallel::Selection)).
    pub fn take(&self, indices: &[usize]) -> Table {
        let selection = crate::parallel::Selection::new(indices, self.num_rows);
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| selection.gather(c)).collect(),
            num_rows: indices.len(),
            description: self.description.clone(),
        }
    }

    /// A table sharing this table's columns zero-copy (same data, same
    /// schema), used by operators whose selection keeps every row.
    pub fn shared_copy(&self) -> Table {
        self.clone()
    }

    /// Replace the column set (used by the vectorized operators). The new
    /// columns must match `schema`.
    pub fn with_columns(&self, schema: Schema, columns: Vec<Arc<Column>>) -> EngineResult<Table> {
        let mut table = Table::from_columns(self.name.clone(), schema, columns)?;
        table.description = self.description.clone();
        Ok(table)
    }

    /// Append an already-evaluated column, returning a new table whose
    /// existing columns are `Arc`-shared with the input (the vectorized
    /// sibling of [`Table::with_new_column`]).
    pub fn append_column(
        &self,
        name: impl Into<String>,
        data_type: DataType,
        column: Arc<Column>,
    ) -> EngineResult<Table> {
        if column.len() != self.num_rows {
            return Err(EngineError::schema(format!(
                "appended column has {} rows but the table has {}",
                column.len(),
                self.num_rows
            )));
        }
        let mut schema = self.schema.clone();
        schema.push(Field::new(name, data_type))?;
        let mut columns = self.columns.clone();
        columns.push(column);
        Ok(Table {
            name: self.name.clone(),
            schema,
            columns,
            num_rows: self.num_rows,
            description: self.description.clone(),
        })
    }

    /// Append a new column computed per-row by `f`, returning a new table.
    /// The existing columns are `Arc`-shared with the input — only the new
    /// column is materialized. This is how multi-modal operators (VisualQA,
    /// TextQA, Python) add their extracted columns.
    pub fn with_new_column<F>(
        &self,
        name: impl Into<String>,
        data_type: DataType,
        mut f: F,
    ) -> EngineResult<Table>
    where
        F: FnMut(usize, RowRef<'_>) -> EngineResult<Value>,
    {
        let mut schema = self.schema.clone();
        schema.push(Field::new(name, data_type))?;
        let mut builder = ColumnBuilder::with_capacity(data_type, self.num_rows);
        for row in self.rows() {
            builder.push(f(row.index(), row)?);
        }
        let mut columns = self.columns.clone();
        columns.push(Arc::new(builder.finish()));
        Ok(Table {
            name: self.name.clone(),
            schema,
            columns,
            num_rows: self.num_rows,
            description: self.description.clone(),
        })
    }

    /// Keep only the rows for which the predicate returns true.
    pub fn filter_rows<F>(&self, mut predicate: F) -> EngineResult<Table>
    where
        F: FnMut(RowRef<'_>) -> EngineResult<bool>,
    {
        let mut indices = Vec::new();
        for row in self.rows() {
            if predicate(row)? {
                indices.push(row.index());
            }
        }
        if indices.len() == self.num_rows {
            return Ok(self.shared_copy());
        }
        Ok(self.take(&indices))
    }

    /// Up to `n` example values of a column, unique, in first-seen order.
    /// This feeds the "These are some relevant values for the column" part of
    /// the discovery/planning prompts and the observations after execution.
    pub fn example_values(&self, column: &str, n: usize) -> EngineResult<Vec<String>> {
        let col = self.column_data(column)?;
        let mut seen = Vec::new();
        for i in 0..self.num_rows {
            let rendered = col.get(i).preview(40);
            if !seen.contains(&rendered) {
                seen.push(rendered);
                if seen.len() >= n {
                    break;
                }
            }
        }
        Ok(seen)
    }

    /// The `table(num_rows=..., columns=[...])` notation used in prompts.
    pub fn prompt_summary(&self) -> String {
        let mut summary = self.prompt_summary_open();
        if let Some(desc) = &self.description {
            summary.push_str(&format!(", description='{desc}'"));
        }
        summary.push(')');
        summary
    }

    /// [`Table::prompt_summary`] without the description: name, row count
    /// and typed columns. A mapping prompt renders the tables its step does
    /// not read this way.
    pub fn prompt_summary_brief(&self) -> String {
        let mut summary = self.prompt_summary_open();
        summary.push(')');
        summary
    }

    fn prompt_summary_open(&self) -> String {
        format!(
            "{} = table(num_rows={}, columns={}",
            self.name,
            self.num_rows(),
            self.schema.prompt_notation()
        )
    }

    /// Render the first `max_rows` rows as an aligned ASCII table.
    pub fn pretty(&self, max_rows: usize) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.chars().count()).collect();
        let shown = self.num_rows.min(max_rows);
        let rendered: Vec<Vec<String>> = (0..shown)
            .map(|i| self.columns.iter().map(|c| c.get(i).preview(30)).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{:w$}", n, w = widths[i]))
            .collect();
        out.push_str(&format!("| {} |\n", header.join(" | ")));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for row in &rendered {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        if self.num_rows > max_rows {
            out.push_str(&format!("... ({} rows total)\n", self.num_rows));
        }
        out
    }

    /// Export the table as CSV (used by the report binaries).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.schema.names().join(","));
        out.push('\n');
        for row in self.rows() {
            let cells: Vec<String> = row
                .values()
                .map(|v| {
                    let s = v.to_string();
                    if s.contains(',') || s.contains('"') || s.contains('\n') {
                        format!("\"{}\"", s.replace('"', "\"\""))
                    } else {
                        s
                    }
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Describe this table to the LLM after an operator has executed
    /// (Figure 2: "New column madonna_depicted has been added. Example
    /// values: ...").
    pub fn observation(&self, new_columns: &[String]) -> Observation {
        let shape = format!(
            "Table '{}' now has {} rows and columns {}.",
            self.name,
            self.num_rows(),
            self.schema.prompt_notation()
        );
        let notes: Vec<String> = new_columns
            .iter()
            .filter_map(|col| {
                let examples = self.example_values(col, 3).ok()?;
                Some(format!(
                    "New column '{}' has been added. Example values: [{}].",
                    col,
                    examples.join(", ")
                ))
            })
            .collect();
        Observation {
            shape,
            new_columns: notes.join(" "),
        }
    }
}

/// What an executed operator produced, as told to the LLM. The two parts are
/// kept apart because a prompt that already renders the table's
/// [`Table::prompt_summary`] line needs only the second.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Observation {
    /// `Table 'x' now has N rows and columns [...]` — what the table's prompt
    /// line says too.
    pub shape: String,
    /// One `New column 'c' has been added. Example values: [...]` sentence
    /// per column the step added; empty when it added none.
    pub new_columns: String,
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.shape)?;
        if !self.new_columns.is_empty() {
            write!(f, " {}", self.new_columns)?;
        }
        Ok(())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty(20))
    }
}

/// Incremental builder for tables: rows are distributed into per-column
/// [`ColumnBuilder`]s as they are pushed, so `build()` never transposes.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    builders: Vec<ColumnBuilder>,
    num_rows: usize,
    description: Option<String>,
}

impl TableBuilder {
    /// Start building a table with the given name and schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type))
            .collect();
        TableBuilder {
            name: name.into(),
            schema,
            builders,
            num_rows: 0,
            description: None,
        }
    }

    /// Set the table description.
    pub fn description(mut self, description: impl Into<String>) -> Self {
        self.description = Some(description.into());
        self
    }

    /// Append a row, validating its arity.
    pub fn push_row(&mut self, row: Row) -> EngineResult<&mut Self> {
        if row.len() != self.schema.len() {
            return Err(EngineError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
                row: self.num_rows,
            });
        }
        for (builder, value) in self.builders.iter_mut().zip(row) {
            builder.push(value);
        }
        self.num_rows += 1;
        Ok(self)
    }

    /// Append a row built from values convertible into [`Value`].
    pub fn push_values<I, V>(&mut self, values: I) -> EngineResult<&mut Self>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let row: Row = values.into_iter().map(Into::into).collect();
        self.push_row(row)
    }

    /// Number of rows added so far.
    pub fn len(&self) -> usize {
        self.num_rows
    }

    /// Whether no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Finish building. Low-cardinality string columns are
    /// dictionary-encoded here (table ingest), behind `CAESURA_DICT_ENCODE`.
    pub fn build(self) -> Table {
        Table {
            name: self.name,
            schema: self.schema,
            columns: self
                .builders
                .into_iter()
                .map(|b| crate::dict::maybe_encode(Arc::new(b.finish())))
                .collect(),
            num_rows: self.num_rows,
            description: self.description,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paintings() -> Table {
        let schema = Schema::from_pairs(&[
            ("title", DataType::Str),
            ("inception", DataType::Str),
            ("img_path", DataType::Str),
        ]);
        let mut builder = TableBuilder::new("paintings_metadata", schema);
        builder
            .push_values(["Madonna", "1889-01-05", "img/1.png"])
            .unwrap();
        builder
            .push_values(["Irises", "1480-05-12", "img/2.png"])
            .unwrap();
        builder
            .push_values(["Scream", "1893-03-01", "img/3.png"])
            .unwrap();
        builder.build()
    }

    #[test]
    fn new_rejects_arity_mismatch() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let result = Table::new("t", schema, vec![vec![Value::Int(1), Value::Int(2)]]);
        assert!(matches!(result, Err(EngineError::ArityMismatch { .. })));
    }

    #[test]
    fn builder_produces_expected_shape() {
        let table = paintings();
        assert_eq!(table.num_rows(), 3);
        assert_eq!(table.num_columns(), 3);
        assert_eq!(table.value(0, "title").unwrap(), Value::str("Madonna"));
    }

    #[test]
    fn with_new_column_appends_values_and_shares_existing_columns() {
        let table = paintings();
        let extended = table
            .with_new_column("century", DataType::Int, |_, row| {
                let inception = row.get(1);
                let year: i32 = inception.as_str().unwrap()[..4].parse().unwrap();
                Ok(Value::Int(((year - 1) / 100 + 1) as i64))
            })
            .unwrap();
        assert_eq!(extended.num_columns(), 4);
        assert_eq!(extended.value(0, "century").unwrap(), Value::Int(19));
        assert_eq!(extended.value(1, "century").unwrap(), Value::Int(15));
        // The untouched columns are shared, not copied.
        for i in 0..3 {
            assert!(Arc::ptr_eq(
                table.column_at(i).unwrap(),
                extended.column_at(i).unwrap()
            ));
        }
    }

    #[test]
    fn filter_rows_keeps_matching_rows() {
        let table = paintings();
        let filtered = table
            .filter_rows(|row| Ok(row.get(0).as_str() == Some("Madonna")))
            .unwrap();
        assert_eq!(filtered.num_rows(), 1);
        assert_eq!(filtered.schema(), table.schema());
    }

    #[test]
    fn filter_rows_keeping_everything_shares_columns() {
        let table = paintings();
        let all = table.filter_rows(|_| Ok(true)).unwrap();
        assert_eq!(all.num_rows(), 3);
        assert!(Arc::ptr_eq(
            table.column_at(0).unwrap(),
            all.column_at(0).unwrap()
        ));
    }

    #[test]
    fn example_values_are_unique_and_bounded() {
        let schema = Schema::from_pairs(&[("answer", DataType::Str)]);
        let mut builder = TableBuilder::new("t", schema);
        for answer in ["yes", "no", "no", "yes", "maybe"] {
            builder.push_values([answer]).unwrap();
        }
        let table = builder.build();
        let examples = table.example_values("answer", 2).unwrap();
        assert_eq!(examples, vec!["yes", "no"]);
    }

    #[test]
    fn prompt_summary_follows_figure3_notation() {
        let table = paintings().with_description("Metadata about paintings");
        let summary = table.prompt_summary();
        assert!(summary.starts_with("paintings_metadata = table(num_rows=3"));
        assert!(summary.contains("'title': 'str'"));
        assert!(summary.contains("description='Metadata about paintings'"));
        let brief = table.prompt_summary_brief();
        assert!(brief.ends_with("'img_path': 'str'])"));
        assert!(summary.starts_with(brief.trim_end_matches(')')));
    }

    #[test]
    fn observation_mentions_new_columns_and_examples() {
        let table = paintings()
            .with_new_column("madonna_depicted", DataType::Str, |i, _| {
                Ok(Value::str(if i == 0 { "yes" } else { "no" }))
            })
            .unwrap();
        let obs = table.observation(&["madonna_depicted".to_string()]);
        assert!(obs
            .shape
            .starts_with("Table 'paintings_metadata' now has 3 rows"));
        assert!(obs.new_columns.starts_with("New column 'madonna_depicted'"));
        assert!(obs.new_columns.contains("yes"));
        assert_eq!(
            obs.to_string(),
            format!("{} {}", obs.shape, obs.new_columns)
        );
        assert_eq!(table.observation(&[]).to_string(), obs.shape);
    }

    #[test]
    fn csv_export_quotes_fields_with_commas() {
        let schema = Schema::from_pairs(&[("a", DataType::Str)]);
        let mut builder = TableBuilder::new("t", schema);
        builder.push_values(["hello, world"]).unwrap();
        let table = builder.build();
        assert!(table.to_csv().contains("\"hello, world\""));
    }

    #[test]
    fn pretty_truncates_after_max_rows() {
        let table = paintings();
        let text = table.pretty(2);
        assert!(text.contains("(3 rows total)"));
    }

    #[test]
    fn column_extraction_and_cell_access() {
        let table = paintings();
        let titles = table.column("title").unwrap();
        assert_eq!(titles.len(), 3);
        assert_eq!(table.cell(2, 0), Some(Value::str("Scream")));
        assert_eq!(table.cell(9, 0), None);
    }

    #[test]
    fn rows_round_trip_through_columns() {
        let table = paintings();
        let rows = table.to_rows();
        let rebuilt = Table::new("paintings_metadata", table.schema().clone(), rows).unwrap();
        assert_eq!(rebuilt, table);
    }

    #[test]
    fn take_gathers_rows() {
        let table = paintings();
        let taken = table.take(&[2, 0]);
        assert_eq!(taken.num_rows(), 2);
        assert_eq!(taken.value(0, "title").unwrap(), Value::str("Scream"));
        assert_eq!(taken.value(1, "title").unwrap(), Value::str("Madonna"));
    }

    #[test]
    fn zero_column_tables_keep_their_row_count() {
        let table = Table::new("z", Schema::empty(), vec![vec![], vec![]]).unwrap();
        assert_eq!(table.num_rows(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn clone_is_shallow() {
        let table = paintings();
        let copy = table.clone();
        for i in 0..table.num_columns() {
            assert!(Arc::ptr_eq(
                table.column_at(i).unwrap(),
                copy.column_at(i).unwrap()
            ));
        }
    }
}
