//! Grouped aggregation (γ).
//!
//! Supports the aggregates the paper's physical plans use (`MAX(points_scored)
//! GROUP BY name`, `MAX(num_swords) GROUP BY century`, counts for the
//! Madonna-and-Child query) plus SUM/AVG/MIN and COUNT(*).
//!
//! Vectorized: the group-by expressions and every aggregated expression are
//! evaluated column-at-a-time first; the grouping pass then walks those
//! columns once, hashing `i64` keys directly when a single integer group
//! column allows it and the rendered group key otherwise.

use crate::column::{Column, ColumnBuilder};
use crate::error::{EngineError, EngineResult};
use crate::expr::Expr;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(expr)` — non-null count — or `COUNT(*)` when the call has no expression.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggFunc {
    /// Look an aggregate up by its SQL name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" | "MEAN" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => return None,
        })
    }

    /// SQL-facing name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate output column.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated expression; `None` means `COUNT(*)`.
    pub expr: Option<Expr>,
    /// Output column name.
    pub alias: String,
}

impl AggCall {
    /// Build an aggregate call.
    pub fn new(func: AggFunc, expr: Option<Expr>, alias: impl Into<String>) -> Self {
        AggCall {
            func,
            expr,
            alias: alias.into(),
        }
    }

    /// `COUNT(*)` with an alias.
    pub fn count_star(alias: impl Into<String>) -> Self {
        AggCall::new(AggFunc::Count, None, alias)
    }
}

/// Running state of one aggregate within one group.
#[derive(Debug)]
enum AggState {
    Count(i64),
    Sum {
        total: f64,
        any: bool,
        all_int: bool,
    },
    Avg {
        total: f64,
        count: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                any: false,
                all_int: true,
            },
            AggFunc::Avg => AggState::Avg {
                total: 0.0,
                count: 0,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Fold the value at `row` of the evaluated aggregate column into the
    /// state. `column` is `None` for `COUNT(*)`.
    fn update(&mut self, column: Option<&Column>, row: usize, context: &str) -> EngineResult<()> {
        match self {
            AggState::Count(c) => {
                match column {
                    // COUNT(*): every row counts.
                    None => *c += 1,
                    // COUNT(expr): only non-null values count.
                    Some(col) if col.is_valid(row) => *c += 1,
                    Some(_) => {}
                }
            }
            AggState::Sum {
                total,
                any,
                all_int,
            } => {
                if let Some(col) = column {
                    if !col.is_valid(row) {
                        return Ok(());
                    }
                    let value = col.get(row);
                    let f = value.as_float().ok_or_else(|| {
                        EngineError::type_mismatch(
                            context,
                            "a numeric value",
                            value.data_type().prompt_name(),
                        )
                    })?;
                    *total += f;
                    *any = true;
                    if !matches!(value, Value::Int(_)) {
                        *all_int = false;
                    }
                }
            }
            AggState::Avg { total, count } => {
                if let Some(col) = column {
                    if !col.is_valid(row) {
                        return Ok(());
                    }
                    let value = col.get(row);
                    let f = value.as_float().ok_or_else(|| {
                        EngineError::type_mismatch(
                            context,
                            "a numeric value",
                            value.data_type().prompt_name(),
                        )
                    })?;
                    *total += f;
                    *count += 1;
                }
            }
            AggState::Min(best) => {
                if let Some(col) = column {
                    if !col.is_valid(row) {
                        return Ok(());
                    }
                    let value = col.get(row);
                    match best {
                        None => *best = Some(value),
                        Some(b) if value.total_cmp(b) == std::cmp::Ordering::Less => {
                            *best = Some(value)
                        }
                        _ => {}
                    }
                }
            }
            AggState::Max(best) => {
                if let Some(col) = column {
                    if !col.is_valid(row) {
                        return Ok(());
                    }
                    let value = col.get(row);
                    match best {
                        None => *best = Some(value),
                        Some(b) if value.total_cmp(b) == std::cmp::Ordering::Greater => {
                            *best = Some(value)
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::Sum {
                total,
                any,
                all_int,
            } => {
                if !any {
                    Value::Null
                } else if all_int {
                    Value::Int(total as i64)
                } else {
                    Value::Float(total)
                }
            }
            AggState::Avg { total, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(total / count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// One group's accumulated state: the key values plus one state per aggregate.
struct Group {
    key_values: Vec<Value>,
    states: Vec<AggState>,
}

impl Group {
    fn new(key_values: Vec<Value>, aggs: &[AggCall]) -> Group {
        Group {
            key_values,
            states: aggs.iter().map(|a| AggState::new(a.func)).collect(),
        }
    }
}

/// Group `input` by the `group_by` expressions and compute `aggs` per group.
///
/// With an empty `group_by` the whole table forms a single group (global
/// aggregation), and a single row is returned even for empty inputs, matching
/// SQL semantics (`COUNT(*)` over an empty table is 0).
pub fn aggregate(
    input: &Table,
    group_by: &[(Expr, String)],
    aggs: &[AggCall],
) -> EngineResult<Table> {
    let in_schema = input.schema();
    let num_rows = input.num_rows();

    let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
    for (expr, alias) in group_by {
        fields.push(Field::new(alias.clone(), expr.output_type(in_schema)));
    }
    for agg in aggs {
        let dtype = match agg.func {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum => DataType::Int,
            AggFunc::Min | AggFunc::Max => agg
                .expr
                .as_ref()
                .map(|e| e.output_type(in_schema))
                .unwrap_or(DataType::Null),
        };
        let mut name = agg.alias.clone();
        let mut suffix = 1;
        while fields.iter().any(|f: &Field| f.name == name) {
            name = format!("{}_{suffix}", agg.alias);
            suffix += 1;
        }
        fields.push(Field::new(name, dtype));
    }
    let schema = Schema::new(fields)?;

    // Vectorized evaluation of every expression, once per column.
    let mut key_columns: Vec<Arc<Column>> = Vec::with_capacity(group_by.len());
    for (expr, _) in group_by {
        key_columns.push(expr.evaluate_batch(in_schema, input.columns(), num_rows)?);
    }
    let mut agg_columns: Vec<Option<Arc<Column>>> = Vec::with_capacity(aggs.len());
    let mut contexts: Vec<String> = Vec::with_capacity(aggs.len());
    for agg in aggs {
        agg_columns.push(match &agg.expr {
            Some(expr) => Some(expr.evaluate_batch(in_schema, input.columns(), num_rows)?),
            None => None,
        });
        contexts.push(format!("{}({})", agg.func.name(), agg.alias));
    }

    // Grouping pass: map each row to its group, folding aggregate states.
    let mut groups = group_rows(num_rows, &key_columns, &agg_columns, &contexts, aggs)?;

    // Global aggregation over an empty input still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        groups.push(Group::new(Vec::new(), aggs));
    }

    // Emit columns in first-seen group order.
    let mut builders: Vec<ColumnBuilder> = schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::with_capacity(f.data_type, groups.len()))
        .collect();
    for group in groups {
        let mut slot = 0;
        for key in group.key_values {
            builders[slot].push(key);
            slot += 1;
        }
        for state in group.states {
            builders[slot].push(state.finish());
            slot += 1;
        }
    }
    Table::from_columns(
        format!("{}_aggregated", input.name()),
        schema,
        builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
    )
}

/// Fold the rows `0..num_rows` into groups in first-seen order.
fn group_rows(
    num_rows: usize,
    key_columns: &[Arc<Column>],
    agg_columns: &[Option<Arc<Column>>],
    contexts: &[String],
    aggs: &[AggCall],
) -> EngineResult<Vec<Group>> {
    let mut groups: Vec<Group> = Vec::new();

    // Single integer group column: hash i64 keys directly.
    let single_int_key = if key_columns.len() == 1 {
        key_columns[0].as_int64()
    } else {
        None
    };
    // Single dictionary-encoded group column: group by `u32` code through a
    // dense per-entry table — no hashing, no string rendering. Codes map
    // one-to-one to entry strings, so first-seen group order and the emitted
    // key values are identical to the plain string path.
    let single_dict_key = if key_columns.len() == 1 {
        key_columns[0].as_dict()
    } else {
        None
    };
    if key_columns.is_empty() {
        // Global aggregation: every row folds into one group — no hashing
        // per row.
        if num_rows > 0 {
            groups.push(Group::new(Vec::new(), aggs));
            for row in 0..num_rows {
                fold_row(&mut groups[0], agg_columns, contexts, row)?;
            }
        }
    } else if let Some((codes, dict, validity)) = single_dict_key {
        let mut index: Vec<Option<usize>> = vec![None; dict.len()];
        let mut null_group: Option<usize> = None;
        for (row, &code) in codes.iter().enumerate() {
            let group = if validity.is_valid(row) {
                let code = code as usize;
                match index[code] {
                    Some(g) => g,
                    None => {
                        let key = Value::Str(Arc::clone(&dict[code]));
                        groups.push(Group::new(vec![key], aggs));
                        let g = groups.len() - 1;
                        index[code] = Some(g);
                        g
                    }
                }
            } else {
                match null_group {
                    Some(g) => g,
                    None => {
                        groups.push(Group::new(vec![Value::Null], aggs));
                        let g = groups.len() - 1;
                        null_group = Some(g);
                        g
                    }
                }
            };
            fold_row(&mut groups[group], agg_columns, contexts, row)?;
        }
    } else if let Some((data, validity)) = single_int_key {
        let mut index: HashMap<i64, usize> = HashMap::new();
        let mut null_group: Option<usize> = None;
        for (row, &key) in data.iter().enumerate() {
            let group = if validity.is_valid(row) {
                *index.entry(key).or_insert_with(|| {
                    groups.push(Group::new(vec![Value::Int(key)], aggs));
                    groups.len() - 1
                })
            } else {
                match null_group {
                    Some(g) => g,
                    None => {
                        groups.push(Group::new(vec![Value::Null], aggs));
                        let g = groups.len() - 1;
                        null_group = Some(g);
                        g
                    }
                }
            };
            fold_row(&mut groups[group], agg_columns, contexts, row)?;
        }
    } else {
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut key_buf = String::new();
        for row in 0..num_rows {
            key_buf.clear();
            for col in key_columns {
                col.write_group_key(row, &mut key_buf);
                key_buf.push('\u{1}');
            }
            let group = match index.get(&key_buf) {
                Some(&g) => g,
                None => {
                    let key_values: Vec<Value> = key_columns.iter().map(|c| c.get(row)).collect();
                    groups.push(Group::new(key_values, aggs));
                    let g = groups.len() - 1;
                    index.insert(key_buf.clone(), g);
                    g
                }
            };
            fold_row(&mut groups[group], agg_columns, contexts, row)?;
        }
    }
    Ok(groups)
}

fn fold_row(
    group: &mut Group,
    agg_columns: &[Option<Arc<Column>>],
    contexts: &[String],
    row: usize,
) -> EngineResult<()> {
    for ((state, column), context) in group
        .states
        .iter_mut()
        .zip(agg_columns.iter())
        .zip(contexts.iter())
    {
        state.update(column.as_deref(), row, context)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::TableBuilder;

    fn scores() -> Table {
        let schema = Schema::from_pairs(&[("name", DataType::Str), ("points", DataType::Int)]);
        let mut b = TableBuilder::new("final_joined_table", schema);
        for (name, points) in [
            ("Heat", 102),
            ("Heat", 95),
            ("Spurs", 110),
            ("Spurs", 99),
            ("Spurs", 87),
        ] {
            b.push_values::<_, Value>(vec![Value::str(name), Value::Int(points)])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn max_per_group_matches_figure4_query1() {
        // SELECT name, MAX(points_scored) FROM final_joined_table GROUP BY name
        let out = aggregate(
            &scores(),
            &[(Expr::col("name"), "name".to_string())],
            &[AggCall::new(
                AggFunc::Max,
                Some(Expr::col("points")),
                "max_points",
            )],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "name").unwrap(), Value::str("Heat"));
        assert_eq!(out.value(0, "max_points").unwrap(), Value::Int(102));
        assert_eq!(out.value(1, "max_points").unwrap(), Value::Int(110));
    }

    #[test]
    fn count_star_vs_count_expr_with_nulls() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.push_row(vec![Value::Int(1)]).unwrap();
        b.push_row(vec![Value::Null]).unwrap();
        b.push_row(vec![Value::Int(3)]).unwrap();
        let table = b.build();
        let out = aggregate(
            &table,
            &[],
            &[
                AggCall::count_star("n"),
                AggCall::new(AggFunc::Count, Some(Expr::col("x")), "n_x"),
            ],
        )
        .unwrap();
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(3));
        assert_eq!(out.value(0, "n_x").unwrap(), Value::Int(2));
    }

    #[test]
    fn sum_and_avg() {
        let out = aggregate(
            &scores(),
            &[(Expr::col("name"), "name".to_string())],
            &[
                AggCall::new(AggFunc::Sum, Some(Expr::col("points")), "total"),
                AggCall::new(AggFunc::Avg, Some(Expr::col("points")), "avg"),
                AggCall::new(AggFunc::Min, Some(Expr::col("points")), "min"),
            ],
        )
        .unwrap();
        assert_eq!(out.value(0, "total").unwrap(), Value::Int(197));
        assert_eq!(out.value(1, "total").unwrap(), Value::Int(296));
        assert_eq!(out.value(1, "min").unwrap(), Value::Int(87));
        let avg = out.value(1, "avg").unwrap().as_float().unwrap();
        assert!((avg - 296.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn global_aggregation_on_empty_table_returns_one_row() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let empty = Table::empty("t", schema);
        let out = aggregate(&empty, &[], &[AggCall::count_star("n")]).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(0));
    }

    #[test]
    fn grouped_aggregation_on_empty_table_returns_zero_rows() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let empty = Table::empty("t", schema);
        let out = aggregate(
            &empty,
            &[(Expr::col("x"), "x".to_string())],
            &[AggCall::count_star("n")],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn aggregating_a_string_column_numerically_is_an_error() {
        let out = aggregate(
            &scores(),
            &[],
            &[AggCall::new(AggFunc::Sum, Some(Expr::col("name")), "s")],
        );
        assert!(matches!(out, Err(EngineError::TypeMismatch { .. })));
    }

    #[test]
    fn group_order_is_first_seen_order() {
        let out = aggregate(
            &scores(),
            &[(Expr::col("name"), "team".to_string())],
            &[AggCall::count_star("games")],
        )
        .unwrap();
        assert_eq!(out.value(0, "team").unwrap(), Value::str("Heat"));
        assert_eq!(out.value(1, "team").unwrap(), Value::str("Spurs"));
        assert_eq!(out.value(0, "games").unwrap(), Value::Int(2));
        assert_eq!(out.value(1, "games").unwrap(), Value::Int(3));
    }

    #[test]
    fn integer_group_keys_use_the_typed_path_and_group_nulls_together() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        for v in [Value::Int(1), Value::Null, Value::Int(1), Value::Null] {
            b.push_row(vec![v]).unwrap();
        }
        let out = aggregate(
            &b.build(),
            &[(Expr::col("x"), "x".to_string())],
            &[AggCall::count_star("n")],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(2));
        assert_eq!(out.value(1, "n").unwrap(), Value::Int(2));
        assert!(out.value(1, "x").unwrap().is_null());
    }

    #[test]
    fn agg_func_lookup() {
        assert_eq!(AggFunc::from_name("max"), Some(AggFunc::Max));
        assert_eq!(AggFunc::from_name("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
