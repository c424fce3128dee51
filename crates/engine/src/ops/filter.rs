//! Selection (σ): keep the rows that satisfy a predicate expression.
//!
//! Vectorized: the predicate is evaluated column-at-a-time into a selection
//! vector of surviving row indices, which is then gathered in one pass per
//! column. If every row survives, the output shares the input's columns
//! zero-copy. A SQL `WHERE` runs here, before its projection. Of the
//! predicate kernels, only a dictionary-encoded column compared with (or
//! `LIKE`-matched against) a string literal works on codes — one comparison
//! per dictionary entry; every other predicate reads the column's strings.

use crate::error::EngineResult;
use crate::expr::Expr;
use crate::table::Table;

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
