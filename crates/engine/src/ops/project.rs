//! Projection (π): compute output columns from expressions.
//!
//! Vectorized and zero-copy where possible: a projection that simply selects
//! an existing column re-uses the input's `Arc`-shared column without copying
//! any row data; computed expressions are evaluated column-at-a-time.

use crate::error::EngineResult;
use crate::expr::Expr;
use crate::schema::{Field, Schema};
use crate::table::Table;

/// One output column of a projection: an expression plus an output name.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// Expression to evaluate per row.
    pub expr: Expr,
    /// Output column name.
    pub alias: String,
}

impl Projection {
    /// Project an expression under an explicit alias.
    pub fn new(expr: Expr, alias: impl Into<String>) -> Self {
        Projection {
            expr,
            alias: alias.into(),
        }
    }

    /// Project a column under its own name.
    pub fn column(name: impl Into<String>) -> Self {
        let name = name.into();
        Projection {
            expr: Expr::col(name.clone()),
            // Keep only the unqualified part as the output name.
            alias: name.rsplit('.').next().unwrap_or(&name).to_string(),
        }
    }
}

/// The output schema of a projection list against an input schema, with
/// duplicate aliases disambiguated by appending a counter.
fn projection_schema(in_schema: &Schema, projections: &[Projection]) -> EngineResult<Schema> {
    let mut fields = Vec::with_capacity(projections.len());
    for p in projections {
        let data_type = p.expr.output_type(in_schema);
        let mut name = p.alias.clone();
        let mut suffix = 1;
        while fields.iter().any(|f: &Field| f.name == name) {
            name = format!("{}_{suffix}", p.alias);
            suffix += 1;
        }
        fields.push(Field::new(name, data_type));
    }
    Schema::new(fields)
}

/// Evaluate the projections over all rows of `input` at once.
pub fn project(input: &Table, projections: &[Projection]) -> EngineResult<Table> {
    let in_schema = input.schema();
    let schema = projection_schema(in_schema, projections)?;
    let mut columns = Vec::with_capacity(projections.len());
    for p in projections {
        // evaluate_batch resolves plain column references to Arc bumps, so a
        // narrowing projection copies no row data at all.
        columns.push(
            p.expr
                .evaluate_batch(in_schema, input.columns(), input.num_rows())?,
        );
    }
    Table::from_columns(format!("{}_projected", input.name()), schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinaryOp, ScalarFunc};
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};
    use std::sync::Arc;

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("title", DataType::Str), ("inception", DataType::Str)]);
        let mut b = TableBuilder::new("paintings", schema);
        b.push_values(["Madonna", "1889-01-05"]).unwrap();
        b.push_values(["Irises", "1480-05-12"]).unwrap();
        b.build()
    }

    #[test]
    fn project_selects_and_renames_columns() {
        let out = project(
            &table(),
            &[
                Projection::column("title"),
                Projection::new(
                    Expr::Func {
                        func: ScalarFunc::Century,
                        args: vec![Expr::col("inception")],
                    },
                    "century",
                ),
            ],
        )
        .unwrap();
        assert_eq!(out.schema().names(), vec!["title", "century"]);
        assert_eq!(out.value(0, "century").unwrap(), Value::Int(19));
        assert_eq!(out.value(1, "century").unwrap(), Value::Int(15));
    }

    #[test]
    fn plain_column_projection_shares_column_storage() {
        let input = table();
        let out = project(&input, &[Projection::column("title")]).unwrap();
        assert!(Arc::ptr_eq(
            input.column_at(0).unwrap(),
            out.column_at(0).unwrap()
        ));
    }

    #[test]
    fn computed_expressions_get_inferred_types() {
        let out = project(
            &table(),
            &[Projection::new(
                Expr::binary(Expr::lit(1), BinaryOp::Add, Expr::lit(2)),
                "three",
            )],
        )
        .unwrap();
        assert_eq!(out.schema().field(0).unwrap().data_type, DataType::Int);
        assert_eq!(out.value(0, "three").unwrap(), Value::Int(3));
    }

    #[test]
    fn duplicate_aliases_are_disambiguated() {
        let out = project(
            &table(),
            &[Projection::column("title"), Projection::column("title")],
        )
        .unwrap();
        assert_eq!(out.schema().names(), vec!["title", "title_1"]);
    }

    #[test]
    fn qualified_columns_project_under_base_name() {
        let schema = Schema::from_pairs(&[("m.title", DataType::Str)]);
        let mut b = TableBuilder::new("joined", schema);
        b.push_values(["Scream"]).unwrap();
        let out = project(&b.build(), &[Projection::column("m.title")]).unwrap();
        assert_eq!(out.schema().names(), vec!["title"]);
    }
}
