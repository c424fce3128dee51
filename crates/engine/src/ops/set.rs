//! LIMIT, DISTINCT, and UNION ALL — vectorized over the columnar layout.

use super::aggregate::Groups;
use crate::column::Column;
use crate::error::{EngineError, EngineResult};
use crate::table::Table;
use std::sync::Arc;

/// Keep only the first `n` rows. When `n` covers the whole table the columns
/// are shared zero-copy.
pub fn limit(input: &Table, n: usize) -> EngineResult<Table> {
    let out = if n >= input.num_rows() {
        input.shared_copy()
    } else {
        let indices: Vec<usize> = (0..n).collect();
        input.take(&indices)
    };
    Ok(out.renamed(format!("{}_limited", input.name())))
}

/// Remove duplicate rows, keeping the first of each. Two rows are the same
/// when each column's two cells are one key under the rule `GROUP BY`
/// groups by: NULL matches NULL, `2` matches `2.0`, a string matches the
/// same text.
pub fn distinct(input: &Table) -> EngineResult<Table> {
    let indices = Groups::assign(input.num_rows(), input.columns()).first_row;
    let out = if indices.len() == input.num_rows() {
        input.shared_copy()
    } else {
        input.take(&indices)
    };
    Ok(out.renamed(format!("{}_distinct", input.name())))
}

/// Concatenate two tables with compatible schemas (same arity and column types).
pub fn union_all(left: &Table, right: &Table) -> EngineResult<Table> {
    if left.num_columns() != right.num_columns() {
        return Err(EngineError::schema(format!(
            "UNION ALL requires the same number of columns ({} vs {})",
            left.num_columns(),
            right.num_columns()
        )));
    }
    let columns: Vec<Arc<Column>> = left
        .columns()
        .iter()
        .zip(right.columns())
        .map(|(l, r)| Arc::new(Column::concat(vec![l.as_ref().clone(), r.as_ref().clone()])))
        .collect();
    Table::from_columns(
        format!("{}_union", left.name()),
        left.schema().clone(),
        columns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};

    fn table(name: &str, values: &[i64]) -> Table {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut b = TableBuilder::new(name, schema);
        for v in values {
            b.push_row(vec![Value::Int(*v)]).unwrap();
        }
        b.build()
    }

    #[test]
    fn limit_truncates() {
        let out = limit(&table("t", &[1, 2, 3, 4]), 2).unwrap();
        assert_eq!(out.num_rows(), 2);
        let out = limit(&table("t", &[1]), 10).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn limit_covering_all_rows_shares_columns() {
        let input = table("t", &[1, 2]);
        let out = limit(&input, 5).unwrap();
        assert!(Arc::ptr_eq(
            input.column_at(0).unwrap(),
            out.column_at(0).unwrap()
        ));
    }

    #[test]
    fn distinct_removes_duplicates_preserving_order() {
        let out = distinct(&table("t", &[3, 1, 3, 2, 1])).unwrap();
        let values: Vec<i64> = out
            .column("x")
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(values, vec![3, 1, 2]);
    }

    #[test]
    fn union_all_concatenates() {
        let out = union_all(&table("a", &[1, 2]), &table("b", &[3])).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn union_all_rejects_mismatched_arity() {
        let two_cols = {
            let schema = Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]);
            TableBuilder::new("two", schema).build()
        };
        assert!(union_all(&table("a", &[1]), &two_cols).is_err());
    }
}
