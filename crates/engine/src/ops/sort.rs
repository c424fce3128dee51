//! ORDER BY: sort a table by one or more keys.
//!
//! Vectorized: the key expressions are evaluated column-at-a-time, a row
//! index permutation is sorted against those key columns (a typed comparator
//! for a single integer key, materialized key rows otherwise), and the output
//! gathers every column once through the permutation.

use crate::error::EngineResult;
use crate::expr::Expr;
use crate::table::Table;
use crate::value::Value;
use std::cmp::{Ordering, Reverse};

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (default in SQL).
    Asc,
    /// Descending.
    Desc,
}

/// One sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Expression to sort by.
    pub expr: Expr,
    /// Direction.
    pub order: SortOrder,
}

impl SortKey {
    /// Ascending sort key on an expression.
    pub fn asc(expr: Expr) -> Self {
        SortKey {
            expr,
            order: SortOrder::Asc,
        }
    }

    /// Descending sort key on an expression.
    pub fn desc(expr: Expr) -> Self {
        SortKey {
            expr,
            order: SortOrder::Desc,
        }
    }
}

/// Sort `input` by the given keys (stable sort).
pub fn sort(input: &Table, keys: &[SortKey]) -> EngineResult<Table> {
    let schema = input.schema();
    let num_rows = input.num_rows();

    // Evaluate every key column up front so evaluation errors surface before
    // any comparison runs.
    let mut key_columns = Vec::with_capacity(keys.len());
    for key in keys {
        key_columns.push(key.expr.evaluate_batch(schema, input.columns(), num_rows)?);
    }

    // Typed fast path: one integer key with no NULLs.
    let typed = if keys.len() == 1 {
        key_columns[0]
            .as_int64()
            .filter(|(_, validity)| validity.is_all_valid())
    } else {
        None
    };
    // Code-native fast path: one dictionary-encoded string key. Rows compare
    // by the precomputed lexicographic rank of their entry (`u32` compares
    // instead of byte compares), which orders them exactly as comparing the
    // strings would; NULL ranks (`None`) sort first ascending and last
    // descending, matching `Value::total_cmp`.
    let dict_key = if keys.len() == 1 {
        key_columns[0].as_dict()
    } else {
        None
    };
    // Every branch is a stable sort of the row permutation, so rows with
    // equal keys keep their input order.
    let mut indices: Vec<usize> = (0..num_rows).collect();
    if let Some((codes, dict, validity)) = dict_key {
        let ranks = crate::dict::entry_ranks(dict);
        let rank_of = |i: usize| {
            if validity.is_valid(i) {
                Some(ranks[codes[i] as usize])
            } else {
                None
            }
        };
        match keys[0].order {
            SortOrder::Asc => indices.sort_by_key(|&i| rank_of(i)),
            SortOrder::Desc => indices.sort_by_key(|&i| Reverse(rank_of(i))),
        }
    } else if let Some((data, _)) = typed {
        match keys[0].order {
            SortOrder::Asc => indices.sort_by_key(|&i| data[i]),
            SortOrder::Desc => indices.sort_by_key(|&i| Reverse(data[i])),
        }
    } else {
        // Materialize the key rows once (decorate), then sort the indices.
        let decorated: Vec<Vec<Value>> = (0..num_rows)
            .map(|i| key_columns.iter().map(|c| c.get(i)).collect())
            .collect();
        indices.sort_by(|&a, &b| {
            for (idx, key) in keys.iter().enumerate() {
                let ord = decorated[a][idx].total_cmp(&decorated[b][idx]);
                let ord = match key.order {
                    SortOrder::Asc => ord,
                    SortOrder::Desc => ord.reverse(),
                };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    Ok(input
        .take(&indices)
        .renamed(format!("{}_sorted", input.name())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::DataType;

    fn table() -> Table {
        let schema =
            Schema::from_pairs(&[("century", DataType::Int), ("max_swords", DataType::Int)]);
        let mut b = TableBuilder::new("result_table", schema);
        for (c, s) in [(19, 2), (15, 5), (17, 3), (15, 1)] {
            b.push_values::<_, Value>(vec![Value::Int(c), Value::Int(s)])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn sort_ascending_by_century() {
        let out = sort(&table(), &[SortKey::asc(Expr::col("century"))]).unwrap();
        let centuries: Vec<i64> = out
            .column("century")
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(centuries, vec![15, 15, 17, 19]);
    }

    #[test]
    fn sort_descending_with_secondary_key() {
        let out = sort(
            &table(),
            &[
                SortKey::asc(Expr::col("century")),
                SortKey::desc(Expr::col("max_swords")),
            ],
        )
        .unwrap();
        assert_eq!(out.value(0, "max_swords").unwrap(), Value::Int(5));
        assert_eq!(out.value(1, "max_swords").unwrap(), Value::Int(1));
    }

    #[test]
    fn sort_is_stable_for_equal_keys() {
        let out = sort(&table(), &[SortKey::asc(Expr::lit(1))]).unwrap();
        // All keys equal → original order preserved.
        assert_eq!(out.value(0, "century").unwrap(), Value::Int(19));
        assert_eq!(out.value(3, "century").unwrap(), Value::Int(15));
    }

    #[test]
    fn nulls_sort_first_ascending() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.push_row(vec![Value::Int(5)]).unwrap();
        b.push_row(vec![Value::Null]).unwrap();
        let out = sort(&b.build(), &[SortKey::asc(Expr::col("x"))]).unwrap();
        assert!(out.value(0, "x").unwrap().is_null());
    }

    #[test]
    fn descending_int_fast_path_is_stable() {
        let schema = Schema::from_pairs(&[("x", DataType::Int), ("tag", DataType::Str)]);
        let mut b = TableBuilder::new("t", schema);
        for (x, tag) in [(1, "a"), (2, "b"), (1, "c"), (2, "d")] {
            b.push_values::<_, Value>(vec![Value::Int(x), Value::str(tag)])
                .unwrap();
        }
        let out = sort(&b.build(), &[SortKey::desc(Expr::col("x"))]).unwrap();
        let tags: Vec<String> = out
            .column("tag")
            .unwrap()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(tags, vec!["b", "d", "a", "c"]);
    }
}
