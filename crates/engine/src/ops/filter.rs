//! Selection (σ): keep the rows that satisfy a predicate expression.
//!
//! Vectorized: the predicate is evaluated column-at-a-time into a selection
//! vector of surviving row indices, which is then gathered in one pass per
//! column. If every row survives, the output shares the input's columns
//! zero-copy.

use crate::column::Column;
use crate::error::EngineResult;
use crate::expr::Expr;
use crate::ops::Projection;
use crate::table::Table;
use std::sync::Arc;

/// Filter `input`, keeping rows for which `predicate` evaluates to true.
///
/// NULL predicate results count as "not selected", matching SQL semantics.
pub fn filter(input: &Table, predicate: &Expr) -> EngineResult<Table> {
    let selected = predicate.selection_vector(input.schema(), input.columns(), input.num_rows())?;
    let filtered = if selected.len() == input.num_rows() {
        input.shared_copy()
    } else {
        input.take(&selected)
    };
    Ok(filtered.renamed(format!("{}_filtered", input.name())))
}

/// Fused σ→π: filter `input` by `predicate` and immediately project.
///
/// A `filter` followed by `project` gathers **every** input column through
/// the selection vector, then drops all but the projected ones. The fused
/// operator applies the selection during projection instead: only the
/// columns the projection expressions actually reference are gathered (each
/// once, shared across expressions), and everything else is never touched.
/// The output is byte-identical to
/// `project(&filter(input, predicate)?, projections)` — the same selection
/// vector feeds the same take kernels, and expression evaluation sees the
/// same gathered columns.
pub fn filter_project(
    input: &Table,
    predicate: &Expr,
    projections: &[Projection],
) -> EngineResult<Table> {
    let in_schema = input.schema();
    let num_rows = input.num_rows();
    let selected = predicate.selection_vector(in_schema, input.columns(), num_rows)?;
    let out_schema = super::project::projection_schema(in_schema, projections)?;
    let out_name = format!("{}_filtered_projected", input.name());

    // Everything survived: the filtered table would share the input's columns
    // zero-copy, so project straight off the input.
    if selected.len() == num_rows {
        let mut columns = Vec::with_capacity(projections.len());
        for p in projections {
            columns.push(
                p.expr
                    .evaluate_batch(in_schema, input.columns(), num_rows)?,
            );
        }
        return Table::from_columns(out_name, out_schema, columns);
    }

    // Gather only the referenced input columns through the selection vector,
    // each exactly once. Unreferenced positions get a shared NULL placeholder
    // that keeps the schema arity without moving any data (they are never
    // read — and an expression referencing an unknown name errors during
    // evaluation exactly as the unfused pipeline would).
    let mut referenced = vec![false; input.num_columns()];
    for p in projections {
        for name in p.expr.referenced_columns() {
            if let Ok(idx) = in_schema.resolve(&name) {
                referenced[idx] = true;
            }
        }
    }
    let selection = crate::parallel::Selection::new(&selected, num_rows);
    let placeholder = Arc::new(Column::Null(selected.len()));
    let gathered: Vec<Arc<Column>> = input
        .columns()
        .iter()
        .zip(&referenced)
        .map(|(col, &read)| {
            if read {
                selection.gather(col)
            } else {
                Arc::clone(&placeholder)
            }
        })
        .collect();

    let mut columns = Vec::with_capacity(projections.len());
    for p in projections {
        columns.push(
            p.expr
                .evaluate_batch(in_schema, &gathered, selected.len())?,
        );
    }
    Table::from_columns(out_name, out_schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinaryOp;
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("name", DataType::Str), ("points", DataType::Int)]);
        let mut b = TableBuilder::new("scores", schema);
        b.push_values::<_, Value>(vec![Value::str("Heat"), Value::Int(102)])
            .unwrap();
        b.push_values::<_, Value>(vec![Value::str("Spurs"), Value::Int(95)])
            .unwrap();
        b.push_values::<_, Value>(vec![Value::str("Bulls"), Value::Null])
            .unwrap();
        b.build()
    }

    #[test]
    fn filter_keeps_matching_rows_only() {
        let out = filter(
            &table(),
            &Expr::binary(Expr::col("points"), BinaryOp::Gt, Expr::lit(100)),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "name").unwrap(), Value::str("Heat"));
    }

    #[test]
    fn null_predicate_rows_are_dropped() {
        let out = filter(
            &table(),
            &Expr::binary(Expr::col("points"), BinaryOp::Lt, Expr::lit(1000)),
        )
        .unwrap();
        // The Bulls row has NULL points → predicate is NULL → dropped.
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn filter_propagates_unknown_column_errors() {
        let err = filter(
            &table(),
            &Expr::binary(Expr::col("score"), BinaryOp::Gt, Expr::lit(1)),
        );
        assert!(err.is_err());
    }

    #[test]
    fn output_table_is_renamed() {
        let out = filter(&table(), &Expr::lit(true)).unwrap();
        assert_eq!(out.name(), "scores_filtered");
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn string_equality_predicate_uses_the_utf8_kernel() {
        let out = filter(
            &table(),
            &Expr::binary(Expr::col("name"), BinaryOp::Eq, Expr::lit("Spurs")),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "points").unwrap(), Value::Int(95));
    }
}
