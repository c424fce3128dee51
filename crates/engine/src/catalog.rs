//! The catalog: a named collection of tables plus the metadata CAESURA needs
//! to describe a data lake to the language model (descriptions, foreign keys).
//!
//! Tables are stored behind [`Arc`], so lookups and catalog clones hand out
//! shared references instead of deep copies — the interleaved executor
//! re-reads base tables after every mapping step, which previously cloned
//! every row each time.

use crate::error::{EngineError, EngineResult};
use crate::table::Table;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A declared foreign-key style relationship between two tables. The paper's
/// mapping-phase prompt lists `foreign_keys=[...]` for every table, which
/// helps the model choose join columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing table.
    pub from_table: String,
    /// Referencing column.
    pub from_column: String,
    /// Referenced table.
    pub to_table: String,
    /// Referenced column.
    pub to_column: String,
}

impl ForeignKey {
    /// Build a foreign key declaration.
    pub fn new(
        from_table: impl Into<String>,
        from_column: impl Into<String>,
        to_table: impl Into<String>,
        to_column: impl Into<String>,
    ) -> Self {
        ForeignKey {
            from_table: from_table.into(),
            from_column: from_column.into(),
            to_table: to_table.into(),
            to_column: to_column.into(),
        }
    }

    /// Render in prompt notation, e.g. `teams.name -> team_to_games.name`.
    pub fn prompt_notation(&self) -> String {
        format!(
            "{}.{} -> {}.{}",
            self.from_table, self.from_column, self.to_table, self.to_column
        )
    }
}

/// An in-memory catalog of named tables.
///
/// Iteration order is deterministic (sorted by table name) so that prompts —
/// and therefore the behaviour of the simulated LLM — are reproducible.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
    foreign_keys: Vec<ForeignKey>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register (or replace) a table under its own name.
    pub fn register(&mut self, table: Table) {
        self.tables
            .insert(table.name().to_string(), Arc::new(table));
    }

    /// Register (or replace) an already-shared table under its own name —
    /// an `Arc` bump, no table data is touched.
    pub fn register_shared(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Remove a table.
    pub fn remove(&mut self, name: &str) -> Option<Arc<Table>> {
        self.tables.remove(name)
    }

    /// Declare a foreign-key relationship.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) {
        self.foreign_keys.push(fk);
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Foreign keys that involve a given table.
    pub fn foreign_keys_for(&self, table: &str) -> Vec<&ForeignKey> {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.from_table == table || fk.to_table == table)
            .collect()
    }

    /// Look a table up by name (case-insensitive fallback). The returned
    /// `Arc` can be cloned to share the table without copying any data.
    pub fn table(&self, name: &str) -> EngineResult<&Arc<Table>> {
        if let Some(table) = self.tables.get(name) {
            return Ok(table);
        }
        if let Some((_, table)) = self
            .tables
            .iter()
            .find(|(key, _)| key.eq_ignore_ascii_case(name))
        {
            return Ok(table);
        }
        Err(EngineError::UnknownTable {
            name: name.to_string(),
            available: self.table_names(),
        })
    }

    /// Look a table up and return a shared handle (an `Arc` bump).
    pub fn table_shared(&self, name: &str) -> EngineResult<Arc<Table>> {
        self.table(name).map(Arc::clone)
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.table(name).is_ok()
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// All tables, sorted by name.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<Table>> {
        self.tables.values()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Render every table in the `name = table(...)` notation used by the
    /// planning and mapping prompts (Figure 3 of the paper), one per line.
    pub fn prompt_summary(&self) -> String {
        let lines: Vec<String> = self
            .tables
            .values()
            .map(|table| self.prompt_line(table))
            .collect();
        lines.join("\n")
    }

    /// One line of [`Catalog::prompt_summary`]: the table in full, followed
    /// by the foreign keys this catalog declares for it.
    pub fn prompt_line(&self, table: &Table) -> String {
        let mut line = format!(" - {}", table.prompt_summary());
        let fks = self.foreign_keys_for(table.name());
        if !fks.is_empty() {
            let rendered: Vec<String> = fks.iter().map(|fk| fk.prompt_notation()).collect();
            line.push_str(&format!(" foreign_keys=[{}]", rendered.join(", ")));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::DataType;

    fn sample_table(name: &str) -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        TableBuilder::new(name, schema).build()
    }

    #[test]
    fn register_and_lookup() {
        let mut catalog = Catalog::new();
        catalog.register(sample_table("teams"));
        assert!(catalog.contains("teams"));
        assert!(catalog.contains("TEAMS"));
        assert!(catalog.table("players").is_err());
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn unknown_table_error_lists_available_tables() {
        let mut catalog = Catalog::new();
        catalog.register(sample_table("teams"));
        catalog.register(sample_table("players"));
        let err = catalog.table("gmaes").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("players"));
        assert!(text.contains("teams"));
    }

    #[test]
    fn prompt_summary_is_sorted_and_includes_foreign_keys() {
        let mut catalog = Catalog::new();
        catalog.register(sample_table("teams"));
        catalog.register(sample_table("games"));
        catalog.add_foreign_key(ForeignKey::new("games", "team_id", "teams", "id"));
        let summary = catalog.prompt_summary();
        let games_pos = summary.find("games =").unwrap();
        let teams_pos = summary.find("teams =").unwrap();
        assert!(games_pos < teams_pos, "tables should be sorted by name");
        assert!(summary.contains("games.team_id -> teams.id"));
    }

    #[test]
    fn foreign_keys_for_filters_by_table() {
        let mut catalog = Catalog::new();
        catalog.add_foreign_key(ForeignKey::new("a", "x", "b", "y"));
        catalog.add_foreign_key(ForeignKey::new("c", "x", "d", "y"));
        assert_eq!(catalog.foreign_keys_for("a").len(), 1);
        assert_eq!(catalog.foreign_keys_for("d").len(), 1);
        assert_eq!(catalog.foreign_keys_for("z").len(), 0);
        assert_eq!(catalog.foreign_keys().len(), 2);
    }
}
