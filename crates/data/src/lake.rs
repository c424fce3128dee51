//! The multi-modal data lake abstraction.
//!
//! A [`DataLake`] bundles everything CAESURA needs to answer queries over one
//! scenario: the relational catalog (which also exposes image and text
//! collections as two-column tables, exactly as described in §3.1 / Figure 4
//! of the paper), the image store holding the scene annotations behind the
//! `IMAGE` column, and a free-text description per data source used by the
//! discovery phase's retrieval step.

use caesura_engine::{Catalog, ForeignKey, Table};
use caesura_modal::ImageStore;
use std::collections::BTreeMap;

/// A named multi-modal data lake.
#[derive(Debug, Clone, Default)]
pub struct DataLake {
    /// Human-readable name of the lake (e.g. "artwork", "rotowire").
    pub name: String,
    catalog: Catalog,
    images: ImageStore,
    descriptions: BTreeMap<String, String>,
}

impl DataLake {
    /// Create an empty lake.
    pub fn new(name: impl Into<String>) -> Self {
        DataLake {
            name: name.into(),
            catalog: Catalog::new(),
            images: ImageStore::new(),
            descriptions: BTreeMap::new(),
        }
    }

    /// Register a table together with the description shown to the retrieval
    /// step and (as part of the table summary) to the planner.
    pub fn add_table(&mut self, table: Table, description: impl Into<String>) {
        let description = description.into();
        let named = table.with_description(description.clone());
        self.descriptions
            .insert(named.name().to_string(), description);
        self.catalog.register(named);
    }

    /// Declare a foreign-key relationship between two registered tables.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) {
        self.catalog.add_foreign_key(fk);
    }

    /// The relational catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The image store backing all IMAGE columns of this lake.
    pub fn images(&self) -> &ImageStore {
        &self.images
    }

    /// Mutable access to the image store.
    pub fn images_mut(&mut self) -> &mut ImageStore {
        &mut self.images
    }

    /// Description of a data source, if registered.
    pub fn description_of(&self, table: &str) -> Option<&str> {
        self.descriptions.get(table).map(String::as_str)
    }

    /// `(source name, retrieval document)` pairs for the discovery phase.
    /// The retrieval document is the description plus the column names so that
    /// keyword retrieval can match on schema terms too.
    pub fn retrieval_documents(&self) -> Vec<(String, String)> {
        self.catalog
            .tables()
            .map(|table| {
                let description = self
                    .descriptions
                    .get(table.name())
                    .cloned()
                    .unwrap_or_default();
                let columns = table.schema().names().join(" ");
                (
                    table.name().to_string(),
                    format!("{} {} {}", table.name(), description, columns),
                )
            })
            .collect()
    }

    /// Number of registered data sources.
    pub fn num_sources(&self) -> usize {
        self.catalog.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesura_engine::{DataType, Schema, TableBuilder};
    use caesura_modal::ImageObject;

    fn lake() -> DataLake {
        let mut lake = DataLake::new("test");
        let schema = Schema::from_pairs(&[("img_path", DataType::Str), ("image", DataType::Image)]);
        let table = TableBuilder::new("painting_images", schema).build();
        lake.add_table(table, "Images of the paintings exhibited in the museum");
        lake.images_mut()
            .insert(ImageObject::new("img/1.png").with_object("madonna", 1));
        lake
    }

    #[test]
    fn tables_carry_their_descriptions() {
        let lake = lake();
        assert_eq!(lake.num_sources(), 1);
        assert!(lake
            .description_of("painting_images")
            .unwrap()
            .contains("museum"));
        assert!(lake
            .catalog()
            .table("painting_images")
            .unwrap()
            .prompt_summary()
            .contains("museum"));
    }

    #[test]
    fn retrieval_documents_include_schema_terms() {
        let docs = lake().retrieval_documents();
        assert_eq!(docs.len(), 1);
        assert!(docs[0].1.contains("img_path"));
        assert!(docs[0].1.contains("museum"));
    }

    #[test]
    fn image_store_is_shared() {
        let lake = lake();
        assert_eq!(lake.images().len(), 1);
        assert!(lake.images().get("img/1.png").is_some());
    }
}
