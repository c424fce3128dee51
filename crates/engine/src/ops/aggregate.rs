//! Grouped aggregation (γ).
//!
//! Supports the aggregates the paper's physical plans use (`MAX(points_scored)
//! GROUP BY name`, `MAX(num_swords) GROUP BY century`, counts for the
//! Madonna-and-Child query) plus SUM/AVG/MIN and COUNT(*).
//!
//! Vectorized, in two passes over columns: the group-by expressions and
//! every aggregated expression are evaluated column at a time first.
//!
//! * Pass 1 assigns each row its group once: by `u32` code for a single
//!   dictionary-encoded key, by `i64` through a keyed multiply hash for a
//!   single integer key, and by the rendered group key otherwise.
//! * Pass 2 runs one loop per aggregate over its evaluated column. The fold
//!   of each aggregate is written once and instantiated per physical type:
//!   over an `Int64` or `Float64` slice, over strings compared where they
//!   lie (plain or dictionary-encoded), and over [`CellRef`]s for every
//!   other column. `COUNT(*)` is the group sizes pass 1 counted.
//!
//! Groups come out in first-seen order, each fold reads its group's rows in
//! row order (float sums are never reassociated), and `MIN`/`MAX` keep the
//! first of tied rows.

use crate::column::{Column, ColumnBuilder};
use crate::error::{EngineError, EngineResult};
use crate::expr::Expr;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{CellRef, DataType, Value};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
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
    for agg in aggs {
        agg_columns.push(match &agg.expr {
            Some(expr) => Some(expr.evaluate_batch(in_schema, input.columns(), num_rows)?),
            None => None,
        });
    }

    // Pass 1: each row's group.
    let groups = Groups::assign(num_rows, &key_columns);

    // Pass 2: the key columns read at each group's first row, then one loop
    // per aggregate. Where several aggregates fail, the error reported is
    // the one a row-major fold meets first: the lowest failing row, then
    // the first of them in SELECT order.
    let mut dtypes = schema.fields().iter().map(|f| f.data_type);
    let mut columns = Vec::with_capacity(schema.len());
    for (key, dtype) in key_columns.iter().zip(&mut dtypes) {
        let mut out = ColumnBuilder::with_capacity(dtype, groups.len());
        for &row in &groups.first_row {
            out.push_cell(key.cell(row));
        }
        columns.push(Arc::new(out.finish()));
    }
    let mut first_error: Option<(usize, EngineError)> = None;
    for ((agg, column), dtype) in aggs.iter().zip(&agg_columns).zip(dtypes) {
        let mut out = ColumnBuilder::with_capacity(dtype, groups.len());
        match fold_column(agg, column.as_deref(), &groups, &mut out) {
            Ok(()) => columns.push(Arc::new(out.finish())),
            Err((row, error)) => {
                if first_error.as_ref().is_none_or(|(first, _)| row < *first) {
                    first_error = Some((row, error));
                }
            }
        }
    }
    if let Some((_, error)) = first_error {
        return Err(error);
    }
    Table::from_columns(format!("{}_aggregated", input.name()), schema, columns)
}

/// Pass 1's result: which group each row falls in, groups numbered in
/// first-seen order.
struct Groups {
    /// The input's row count.
    num_rows: usize,
    /// Each row's group; empty without `GROUP BY`, where every row is in
    /// group 0.
    of_row: Vec<usize>,
    /// Each group's first row (empty without `GROUP BY`).
    first_row: Vec<usize>,
    /// Each group's row count.
    size: Vec<i64>,
}

impl Groups {
    /// Assign each of the `num_rows` rows its group by the values of
    /// `key_columns` at that row: NULL keys group together, and a group is
    /// numbered when its first row is met.
    fn assign(num_rows: usize, key_columns: &[Arc<Column>]) -> Groups {
        if key_columns.is_empty() {
            // Global aggregation: one group, even over zero rows.
            return Groups {
                num_rows,
                of_row: Vec::new(),
                first_row: Vec::new(),
                size: vec![num_rows as i64],
            };
        }
        let mut groups = Groups {
            num_rows,
            of_row: Vec::with_capacity(num_rows),
            first_row: Vec::new(),
            size: Vec::new(),
        };
        let single = match key_columns {
            [key] => Some(key),
            _ => None,
        };
        if let Some((codes, dict, validity)) = single.and_then(|key| key.as_dict()) {
            // A dictionary-encoded key groups by `u32` code through a dense
            // per-entry table: codes map one-to-one to entry strings, so the
            // groups are the ones the rendered key finds.
            let mut index: Vec<Option<usize>> = vec![None; dict.len()];
            let mut null_group = None;
            for (row, &code) in codes.iter().enumerate() {
                let slot = if validity.is_valid(row) {
                    &mut index[code as usize]
                } else {
                    &mut null_group
                };
                let group = *slot.get_or_insert_with(|| groups.open(row));
                groups.put(group);
            }
        } else if let Some((keys, validity)) = single.and_then(|key| key.as_int64()) {
            let mut index = HashMap::with_hasher(IntKeys::new());
            let mut null_group = None;
            for (row, &key) in keys.iter().enumerate() {
                let group = if validity.is_valid(row) {
                    *index.entry(key).or_insert_with(|| groups.open(row))
                } else {
                    *null_group.get_or_insert_with(|| groups.open(row))
                };
                groups.put(group);
            }
        } else {
            let mut index: HashMap<String, usize> = HashMap::new();
            let mut key = String::new();
            for row in 0..num_rows {
                key.clear();
                for column in key_columns {
                    column.write_group_key(row, &mut key);
                    key.push('\u{1}');
                }
                let group = match index.get(&key) {
                    Some(&group) => group,
                    None => {
                        let group = groups.open(row);
                        index.insert(key.clone(), group);
                        group
                    }
                };
                groups.put(group);
            }
        }
        groups
    }

    /// Number a new group whose first row is `row`.
    fn open(&mut self, row: usize) -> usize {
        self.first_row.push(row);
        self.size.push(0);
        self.size.len() - 1
    }

    /// Put the next row in `group`.
    fn put(&mut self, group: usize) {
        self.of_row.push(group);
        self.size[group] += 1;
    }

    /// Number of groups.
    fn len(&self) -> usize {
        self.size.len()
    }

    /// Call `f` with the group and the cell of every row whose cell
    /// `cell_at` reads as non-NULL, in row order. The first error stops the
    /// walk and is returned with its row.
    fn each_cell<T>(
        &self,
        cell_at: impl Fn(usize) -> Option<T>,
        mut f: impl FnMut(usize, T) -> EngineResult<()>,
    ) -> Result<(), (usize, EngineError)> {
        let mut visit = |row: usize, group: usize| match cell_at(row) {
            Some(cell) => f(group, cell).map_err(|error| (row, error)),
            None => Ok(()),
        };
        if self.of_row.is_empty() {
            (0..self.num_rows).try_for_each(|row| visit(row, 0))
        } else {
            let mut rows = self.of_row.iter().enumerate();
            rows.try_for_each(|(row, &group)| visit(row, group))
        }
    }
}

/// Hashes `i64` group keys with one keyed 128-bit multiply, folded to 64
/// bits: std's SipHash costs more per key than the rest of pass 1. The key
/// is drawn per aggregation from std's per-process random hash keys.
#[derive(Clone)]
struct IntKeys(u64);

impl IntKeys {
    fn new() -> IntKeys {
        IntKeys(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for IntKeys {
    type Hasher = IntKeyHasher;

    fn build_hasher(&self) -> IntKeyHasher {
        IntKeyHasher(self.0)
    }
}

struct IntKeyHasher(u64);

impl Hasher for IntKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, x: u64) {
        const MULTIPLIER: u128 = 0x9E37_79B9_7F4A_7C15;
        let product = u128::from(self.0 ^ x) * MULTIPLIER;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }
}

/// A non-NULL cell as one physical type reads it: what the aggregates need
/// of it. The defaults go through [`CellRef`], which is how a column
/// without a typed slice (`Mixed`, dates, booleans) is folded.
trait AggCell<'a>: Copy {
    /// The cell as a value.
    fn cell(self) -> CellRef<'a>;

    /// `SUM`/`AVG`'s view: the number as a float and whether it is an int,
    /// or `None` for a non-numeric cell.
    fn number(self) -> Option<(f64, bool)> {
        let cell = self.cell();
        cell.as_float()
            .map(|x| (x, matches!(cell, CellRef::Int(_))))
    }

    /// `MIN`/`MAX`'s ordering.
    fn order(self, other: Self) -> Ordering {
        self.cell().total_cmp(other.cell())
    }
}

impl<'a> AggCell<'a> for CellRef<'a> {
    fn cell(self) -> CellRef<'a> {
        self
    }
}

impl<'a> AggCell<'a> for i64 {
    fn cell(self) -> CellRef<'a> {
        CellRef::Int(self)
    }

    fn number(self) -> Option<(f64, bool)> {
        Some((self as f64, true))
    }

    fn order(self, other: i64) -> Ordering {
        self.cmp(&other)
    }
}

impl<'a> AggCell<'a> for f64 {
    fn cell(self) -> CellRef<'a> {
        CellRef::Float(self)
    }

    fn number(self) -> Option<(f64, bool)> {
        Some((self, false))
    }

    fn order(self, other: f64) -> Ordering {
        self.total_cmp(&other)
    }
}

impl<'a> AggCell<'a> for &'a str {
    fn cell(self) -> CellRef<'a> {
        CellRef::Str(self)
    }

    fn number(self) -> Option<(f64, bool)> {
        None
    }

    fn order(self, other: &'a str) -> Ordering {
        self.cmp(other)
    }
}

/// One aggregate over its evaluated column (`None` for `COUNT(*)`), each
/// group's result pushed into `out`; or the error at the lowest row where
/// it fails. Runs [`fold`] over the column's typed slice where it has one.
fn fold_column(
    agg: &AggCall,
    column: Option<&Column>,
    groups: &Groups,
    out: &mut ColumnBuilder,
) -> Result<(), (usize, EngineError)> {
    let Some(column) = column else {
        // COUNT(*): every row counts.
        for &size in &groups.size {
            out.push(Value::Int(size));
        }
        return Ok(());
    };
    match column {
        Column::Int64(data, validity) => fold(
            agg,
            |row| validity.is_valid(row).then(|| data[row]),
            groups,
            out,
        ),
        Column::Float64(data, validity) => fold(
            agg,
            |row| validity.is_valid(row).then(|| data[row]),
            groups,
            out,
        ),
        Column::Utf8(data, validity) => fold(
            agg,
            |row| validity.is_valid(row).then(|| data.get(row)),
            groups,
            out,
        ),
        Column::Dict {
            codes,
            dict,
            bitmap,
        } => fold(
            agg,
            |row| bitmap.is_valid(row).then(|| dict.get(codes[row] as usize)),
            groups,
            out,
        ),
        other => fold(
            agg,
            |row| Some(other.cell(row)).filter(|cell| !cell.is_null()),
            groups,
            out,
        ),
    }
}

/// The one fold of each aggregate, over the non-NULL cells `cell_at`
/// reads, in row order within each group: `COUNT` counts them, `SUM`/`AVG`
/// add them as floats (an all-int `SUM` is an int), `MIN`/`MAX` keep the
/// first of the tied extremes. A group without a cell is NULL, but for
/// `COUNT`, which is 0.
fn fold<'a, T: AggCell<'a>>(
    agg: &AggCall,
    cell_at: impl Fn(usize) -> Option<T>,
    groups: &Groups,
    out: &mut ColumnBuilder,
) -> Result<(), (usize, EngineError)> {
    let n = groups.len();
    match agg.func {
        AggFunc::Count => {
            let mut counts = vec![0i64; n];
            groups.each_cell(cell_at, |group, _| {
                counts[group] += 1;
                Ok(())
            })?;
            for count in counts {
                out.push(Value::Int(count));
            }
        }
        AggFunc::Sum | AggFunc::Avg => {
            // Per group: the running total, the cells added, whether all
            // were ints.
            let mut sums = vec![(0.0, 0i64, true); n];
            groups.each_cell(cell_at, |group, cell| {
                let (x, is_int) = cell.number().ok_or_else(|| {
                    EngineError::type_mismatch(
                        format!("{}({})", agg.func.name(), agg.alias),
                        "a numeric value",
                        cell.cell().data_type().prompt_name(),
                    )
                })?;
                let sum = &mut sums[group];
                sum.0 += x;
                sum.1 += 1;
                sum.2 &= is_int;
                Ok(())
            })?;
            for (total, count, all_int) in sums {
                out.push(match agg.func {
                    _ if count == 0 => Value::Null,
                    AggFunc::Avg => Value::Float(total / count as f64),
                    _ if all_int => Value::Int(total as i64),
                    _ => Value::Float(total),
                });
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let wins = match agg.func {
                AggFunc::Min => Ordering::Less,
                _ => Ordering::Greater,
            };
            let mut best: Vec<Option<T>> = vec![None; n];
            groups.each_cell(cell_at, |group, cell| {
                let best = &mut best[group];
                if best.is_none_or(|b| cell.order(b) == wins) {
                    *best = Some(cell);
                }
                Ok(())
            })?;
            for cell in best {
                out.push_cell(cell.map_or(CellRef::Null, AggCell::cell));
            }
        }
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
