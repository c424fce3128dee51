//! Schemas: named, typed fields describing table layouts.
//!
//! Schemas also carry the human-readable descriptions that CAESURA renders
//! into its prompts (Figure 3 of the paper shows the
//! `table(num_rows=..., columns=[...])` notation).

use crate::error::{EngineError, EngineResult};
use crate::value::DataType;
use std::fmt;

/// A single column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Column name (possibly qualified as `table.column` after a join).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Optional human description used in discovery/planning prompts.
    pub description: Option<String>,
}

impl Field {
    /// Create a field without a description.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
            description: None,
        }
    }

    /// Create a field with a prompt description.
    pub fn with_description(
        name: impl Into<String>,
        data_type: DataType,
        description: impl Into<String>,
    ) -> Self {
        Field {
            name: name.into(),
            data_type,
            description: Some(description.into()),
        }
    }

    /// The unqualified part of the name (`century` for `metadata.century`).
    pub fn base_name(&self) -> &str {
        match self.name.rsplit_once('.') {
            Some((_, base)) => base,
            None => &self.name,
        }
    }

    /// The qualifier of the name, if any (`metadata` for `metadata.century`).
    pub fn qualifier(&self) -> Option<&str> {
        self.name.rsplit_once('.').map(|(q, _)| q)
    }
}

/// An ordered collection of fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Create a schema from fields, rejecting duplicate names.
    pub fn new(fields: Vec<Field>) -> EngineResult<Self> {
        for (i, field) in fields.iter().enumerate() {
            if fields[..i].iter().any(|f| f.name == field.name) {
                return Err(EngineError::schema(format!(
                    "duplicate column name '{}'",
                    field.name
                )));
            }
        }
        Ok(Schema { fields })
    }

    /// Create an empty schema.
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Schema {
            fields: pairs
                .iter()
                .map(|(name, dt)| Field::new(*name, *dt))
                .collect(),
        }
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<String> {
        self.fields.iter().map(|f| f.name.clone()).collect()
    }

    /// Field at a given position.
    pub fn field(&self, index: usize) -> Option<&Field> {
        self.fields.get(index)
    }

    /// Append a field, rejecting duplicates.
    pub fn push(&mut self, field: Field) -> EngineResult<()> {
        if self.fields.iter().any(|f| f.name == field.name) {
            return Err(EngineError::schema(format!(
                "duplicate column name '{}'",
                field.name
            )));
        }
        self.fields.push(field);
        Ok(())
    }

    /// Resolve a (possibly qualified, possibly unqualified) column reference
    /// to a field index. Resolution rules:
    ///
    /// 1. exact match on the full name;
    /// 2. otherwise match on the unqualified base name — if exactly one field
    ///    has that base name it wins, several matches are ambiguous;
    /// 3. otherwise the column is unknown.
    pub fn resolve(&self, name: &str) -> EngineResult<usize> {
        if let Some(idx) = self.fields.iter().position(|f| f.name == name) {
            return Ok(idx);
        }
        // Case-insensitive exact match as a fallback (SQL identifiers).
        if let Some(idx) = self
            .fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
        {
            return Ok(idx);
        }
        let base = match name.rsplit_once('.') {
            Some((_, b)) => b,
            None => name,
        };
        let matches: Vec<usize> = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.base_name().eq_ignore_ascii_case(base))
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(EngineError::UnknownColumn {
                name: name.to_string(),
                available: self.names(),
            }),
            _ => {
                // If the reference was qualified, prefer the candidate whose
                // qualifier matches.
                if let Some((qualifier, _)) = name.rsplit_once('.') {
                    if let Some(&idx) = matches.iter().find(|&&i| {
                        self.fields[i]
                            .qualifier()
                            .map(|q| q.eq_ignore_ascii_case(qualifier))
                            .unwrap_or(false)
                    }) {
                        return Ok(idx);
                    }
                }
                Err(EngineError::AmbiguousColumn {
                    name: name.to_string(),
                    candidates: matches
                        .into_iter()
                        .map(|i| self.fields[i].name.clone())
                        .collect(),
                })
            }
        }
    }

    /// Whether a column reference can be resolved.
    pub fn contains(&self, name: &str) -> bool {
        self.resolve(name).is_ok()
    }

    /// Merge two schemas for a join, qualifying colliding names with the
    /// provided table aliases.
    pub fn join(&self, left_alias: &str, other: &Schema, right_alias: &str) -> Schema {
        let mut fields = Vec::with_capacity(self.len() + other.len());
        for field in &self.fields {
            let collides = other
                .fields
                .iter()
                .any(|f| f.base_name() == field.base_name());
            let name = if collides && field.qualifier().is_none() {
                format!("{left_alias}.{}", field.name)
            } else {
                field.name.clone()
            };
            fields.push(Field {
                name,
                data_type: field.data_type,
                description: field.description.clone(),
            });
        }
        for field in &other.fields {
            let collides = self
                .fields
                .iter()
                .any(|f| f.base_name() == field.base_name());
            let name = if collides && field.qualifier().is_none() {
                format!("{right_alias}.{}", field.name)
            } else {
                field.name.clone()
            };
            // Guard against exact duplicates after qualification.
            let mut final_name = name.clone();
            let mut suffix = 1;
            while fields.iter().any(|f: &Field| f.name == final_name) {
                final_name = format!("{name}_{suffix}");
                suffix += 1;
            }
            fields.push(Field {
                name: final_name,
                data_type: field.data_type,
                description: field.description.clone(),
            });
        }
        Schema { fields }
    }

    /// Render the schema in the `columns=['name': 'type', ...]` notation used
    /// in prompts (Figure 3 of the paper).
    pub fn prompt_notation(&self) -> String {
        let cols: Vec<String> = self
            .fields
            .iter()
            .map(|f| format!("'{}': '{}'", f.name, f.data_type.prompt_name()))
            .collect();
        format!("[{}]", cols.join(", "))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.prompt_notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::from_pairs(&[
            ("title", DataType::Str),
            ("inception", DataType::Str),
            ("img_path", DataType::Str),
        ])
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Str),
        ]);
        assert!(schema.is_err());
    }

    #[test]
    fn resolve_exact_and_case_insensitive() {
        let schema = sample();
        assert_eq!(schema.resolve("title").unwrap(), 0);
        assert_eq!(schema.resolve("Title").unwrap(), 0);
        assert!(schema.resolve("nonexistent").is_err());
    }

    #[test]
    fn resolve_qualified_reference_by_suffix() {
        let schema = Schema::from_pairs(&[("metadata.title", DataType::Str)]);
        assert_eq!(schema.resolve("title").unwrap(), 0);
        assert_eq!(schema.resolve("metadata.title").unwrap(), 0);
    }

    #[test]
    fn join_qualifies_colliding_columns() {
        let left = Schema::from_pairs(&[("img_path", DataType::Str), ("title", DataType::Str)]);
        let right = Schema::from_pairs(&[("img_path", DataType::Str), ("image", DataType::Image)]);
        let joined = left.join("metadata", &right, "images");
        assert_eq!(joined.len(), 4);
        assert!(joined.contains("metadata.img_path"));
        assert!(joined.contains("images.img_path"));
        assert!(joined.contains("title"));
        assert!(joined.contains("image"));
        // Unqualified "img_path" is now ambiguous.
        assert!(matches!(
            joined.resolve("img_path"),
            Err(EngineError::AmbiguousColumn { .. })
        ));
    }

    #[test]
    fn ambiguous_qualified_reference_prefers_matching_qualifier() {
        let left = Schema::from_pairs(&[("img_path", DataType::Str)]);
        let right = Schema::from_pairs(&[("img_path", DataType::Str)]);
        let joined = left.join("m", &right, "i");
        let idx = joined.resolve("i.img_path").unwrap();
        assert_eq!(joined.field(idx).unwrap().name, "i.img_path");
    }

    #[test]
    fn prompt_notation_matches_paper_style() {
        let schema = Schema::from_pairs(&[("img_path", DataType::Str), ("image", DataType::Image)]);
        assert_eq!(
            schema.prompt_notation(),
            "['img_path': 'str', 'image': 'IMAGE']"
        );
    }

    #[test]
    fn push_rejects_duplicates() {
        let mut schema = sample();
        assert!(schema.push(Field::new("title", DataType::Int)).is_err());
        assert!(schema.push(Field::new("century", DataType::Int)).is_ok());
        assert_eq!(schema.len(), 4);
    }
}
