//! Property-based tests of the relational-engine invariants.
//!
//! The build environment has no network access, so instead of `proptest`
//! these properties run over deterministic pseudo-random inputs drawn from
//! the in-repo `rand` shim: every property is checked for a few hundred
//! random cases per run, with stable seeds for reproducibility.
//!
//! Two families of properties cover the columnar refactor specifically:
//!
//! * **row ↔ columnar round trips** — materializing a columnar table to rows
//!   and rebuilding it yields a logically identical table;
//! * **operator equivalence** — every vectorized operator (filter, project,
//!   join, aggregate, sort, distinct/limit/union) produces exactly the rows a
//!   naive row-at-a-time reference implementation produces on random tables.

use caesura::engine::{
    dict, ops, sql, BinaryOp, Catalog, Column, ColumnBuilder, DataType, EngineError, EngineResult,
    Expr, Schema, Table, TableBuilder, UnaryOp, Value,
};
use common::{cell_key, CellKey};
use rand::{Rng, SeedableRng, StdRng};
use std::cmp::Ordering;
use std::collections::HashMap;

mod common;

const CASES: usize = 250;

/// A random value mirroring the old proptest strategy: NULL, bool, int,
/// float, or a short string (see [`random_string`]); or, as an int or a
/// float, a boundary of the numeric key rule: 10^15, or ±2^53, past which
/// ints are no longer exact as floats.
fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range(-1_000_000i64..1_000_000)),
        3 => Value::Float(rng.gen_range(-1_000_000i64..1_000_000) as f64 / 7.0),
        4 => Value::str(random_string(rng, 12)),
        _ => {
            let x = [1_000_000_000_000_000, 1 << 53, -(1 << 53)][rng.gen_range(0..3usize)];
            match rng.gen_bool(0.5) {
                true => Value::Int(x),
                false => Value::Float(x as f64),
            }
        }
    }
}

/// Up to `max_len` pieces, empty strings included: alphanumerics, a space,
/// characters of two, three and four UTF-8 bytes, so a string column's
/// byte offsets stop apart from its character positions, and the bytes a
/// rendered row key would be built of (U+0001 between columns, U+0000,
/// type tags), so no key can merge rows by splicing strings.
fn random_string(rng: &mut StdRng, max_len: usize) -> String {
    const MULTI_BYTE: [char; 3] = ['é', '中', '🎨'];
    const ASCII: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    const HOSTILE: [&str; 5] = ["\u{1}", "\u{0}", "s:", "i:", "img:"];
    let len = rng.gen_range(0..=max_len);
    let mut out = String::new();
    for _ in 0..len {
        match rng.gen_range(0..ASCII.len() + MULTI_BYTE.len() + HOSTILE.len()) {
            i if i < ASCII.len() => out.push(ASCII[i] as char),
            i if i < ASCII.len() + MULTI_BYTE.len() => out.push(MULTI_BYTE[i - ASCII.len()]),
            i => out.push_str(HOSTILE[i - ASCII.len() - MULTI_BYTE.len()]),
        }
    }
    out
}

fn int_table(values: &[i64]) -> Table {
    let schema = Schema::from_pairs(&[("x", DataType::Int)]);
    let mut builder = TableBuilder::new("numbers", schema);
    for v in values {
        builder.push_row(vec![Value::Int(*v)]).unwrap();
    }
    builder.build()
}

/// A random mixed-type table: an int column with NULLs, a float column, a
/// low-cardinality string column (dictionary-encoded from 16 rows on) and a
/// nullable plain string column of [`random_string`]s — the shapes the
/// operators see in practice.
fn random_table(rng: &mut StdRng, max_rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("score", DataType::Float),
        ("team", DataType::Str),
        ("note", DataType::Str),
    ]);
    let teams = ["Heat", "Spurs", "Bulls", "Lakers"];
    let rows = rng.gen_range(0..=max_rows);
    let mut builder = TableBuilder::new("random_t", schema);
    for _ in 0..rows {
        let k = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(-20i64..20))
        };
        let score = Value::Float(rng.gen_range(0i64..1000) as f64 / 10.0);
        let team = Value::str(teams[rng.gen_range(0..teams.len())]);
        let note = if rng.gen_bool(0.15) {
            Value::Null
        } else {
            Value::str(random_string(rng, 3))
        };
        builder.push_row(vec![k, score, team, note]).unwrap();
    }
    builder.build()
}

fn assert_tables_equal_rows(actual: &Table, expected: &[Vec<Value>], context: &str) {
    assert_eq!(actual.num_rows(), expected.len(), "{context}: row count");
    for (i, (row, expected_row)) in actual.rows().zip(expected.iter()).enumerate() {
        let materialized = row.to_vec();
        assert_eq!(&materialized, expected_row, "{context}: row {i}");
    }
}

// ---------------------------------------------------------------------------
// Columnar-specific properties
// ---------------------------------------------------------------------------

/// Materializing a columnar table to rows and rebuilding it from those rows
/// yields a logically identical table (same schema, same cells).
#[test]
fn row_columnar_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..CASES {
        let table = random_table(&mut rng, 40);
        let rows = table.to_rows();
        let rebuilt = Table::new(table.name(), table.schema().clone(), rows.clone()).unwrap();
        assert_eq!(rebuilt.num_rows(), table.num_rows());
        assert_eq!(rebuilt.schema(), table.schema());
        assert_tables_equal_rows(&rebuilt, &rows, "round trip");
        // And cell-level access agrees with row-level access.
        for (i, row) in rows.iter().enumerate() {
            for (c, expected) in row.iter().enumerate() {
                assert_eq!(&table.cell(i, c).unwrap(), expected);
            }
        }
    }
}

/// Vectorized filter returns exactly the rows the row-at-a-time reference
/// (scalar predicate evaluation per materialized row) selects.
#[test]
fn filter_matches_row_at_a_time_reference() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CASES {
        let table = random_table(&mut rng, 40);
        let predicate = if rng.gen_bool(0.5) {
            let threshold = rng.gen_range(-20i64..20);
            Expr::binary(Expr::col("k"), BinaryOp::Gt, Expr::lit(threshold))
        } else {
            let bound = random_string(&mut rng, 2);
            Expr::binary(Expr::col("note"), BinaryOp::LtEq, Expr::lit(bound))
        };
        let expected: Vec<Vec<Value>> = table
            .to_rows()
            .into_iter()
            .filter(|row| predicate.evaluate_predicate(table.schema(), row).unwrap())
            .collect();
        let actual = ops::filter(&table, &predicate).unwrap();
        assert_tables_equal_rows(&actual, &expected, "filter");
    }
}

/// Vectorized projection (zero-copy column selects plus computed columns)
/// equals scalar per-row expression evaluation.
#[test]
fn project_matches_row_at_a_time_reference() {
    let mut rng = StdRng::seed_from_u64(2);
    let projections = [
        ops::Projection::column("team"),
        ops::Projection::new(
            Expr::binary(Expr::col("k"), BinaryOp::Mul, Expr::lit(3)),
            "k3",
        ),
        ops::Projection::new(
            Expr::binary(Expr::col("score"), BinaryOp::Add, Expr::col("score")),
            "double_score",
        ),
    ];
    for _ in 0..CASES {
        let table = random_table(&mut rng, 40);
        let expected: Vec<Vec<Value>> = table
            .to_rows()
            .iter()
            .map(|row| {
                projections
                    .iter()
                    .map(|p| p.expr.evaluate(table.schema(), row).unwrap())
                    .collect()
            })
            .collect();
        let actual = ops::project(&table, &projections).unwrap();
        assert_tables_equal_rows(&actual, &expected, "project");
    }
}

/// The vectorized hash join (typed i64/str key paths included) produces the
/// same multiset — in the same probe order — as a nested-loop reference.
#[test]
fn join_matches_nested_loop_reference() {
    let mut rng = StdRng::seed_from_u64(3);
    for case in 0..CASES {
        let left = random_table(&mut rng, 25).renamed("left_t");
        let right = random_table(&mut rng, 25).renamed("right_t");
        // Rotate between the int-key, dictionary and plain string keys.
        let key = ["k", "team", "note"][case % 3];
        let key_idx = left.schema().resolve(key).unwrap();
        let left_rows = left.to_rows();
        let right_rows = right.to_rows();
        let mut expected = Vec::new();
        for lrow in &left_rows {
            if lrow[key_idx].is_null() {
                continue;
            }
            for rrow in &right_rows {
                if rrow[key_idx].is_null() {
                    continue;
                }
                if cell_key(&lrow[key_idx]) == cell_key(&rrow[key_idx]) {
                    let mut row = lrow.clone();
                    row.extend(rrow.iter().cloned());
                    expected.push(row);
                }
            }
        }
        let actual = ops::hash_join(&left, &right, key, key).unwrap();
        assert_tables_equal_rows(&actual, &expected, "join");
    }
}

/// Vectorized grouped aggregation equals a first-seen-order row-at-a-time
/// reference for COUNT(*), COUNT, SUM, MAX over floats and MIN over strings.
#[test]
fn aggregate_matches_row_at_a_time_reference() {
    let mut rng = StdRng::seed_from_u64(4);
    for case in 0..CASES {
        let table = random_table(&mut rng, 40);
        let group_col = ["k", "team", "note"][case % 3];
        let group_idx = table.schema().resolve(group_col).unwrap();
        let score_idx = table.schema().resolve("score").unwrap();
        let note_idx = table.schema().resolve("note").unwrap();

        // Reference: first-seen-order groups over materialized rows.
        type Reference = (Value, i64, i64, f64, Option<Value>, Option<Value>);
        let mut order: Vec<CellKey> = Vec::new();
        let mut groups: HashMap<CellKey, Reference> = HashMap::new();
        for row in table.to_rows() {
            let key = cell_key(&row[group_idx]);
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key.clone());
                (row[group_idx].clone(), 0, 0, 0.0, None, None)
            });
            if !row[note_idx].is_null() {
                let candidate = row[note_idx].clone();
                entry.5 = Some(match entry.5.take() {
                    None => candidate,
                    Some(best) if candidate.total_cmp(&best) == Ordering::Less => candidate,
                    Some(best) => best,
                });
            }
            entry.1 += 1; // COUNT(*)
            if !row[score_idx].is_null() {
                entry.2 += 1; // COUNT(score)
                entry.3 += row[score_idx].as_float().unwrap(); // SUM
                let candidate = row[score_idx].clone();
                entry.4 = Some(match entry.4.take() {
                    None => candidate,
                    Some(best) if candidate.total_cmp(&best) == Ordering::Greater => candidate,
                    Some(best) => best,
                });
            }
        }
        let expected: Vec<Vec<Value>> = order
            .iter()
            .map(|key| {
                let (value, count_star, count, sum, max, min_note) = groups[key].clone();
                vec![
                    value,
                    Value::Int(count_star),
                    Value::Int(count),
                    if count == 0 {
                        Value::Null
                    } else {
                        Value::Float(sum)
                    },
                    max.unwrap_or(Value::Null),
                    min_note.unwrap_or(Value::Null),
                ]
            })
            .collect();

        let actual = ops::aggregate(
            &table,
            &[(Expr::col(group_col), group_col.to_string())],
            &[
                ops::AggCall::count_star("n"),
                ops::AggCall::new(ops::AggFunc::Count, Some(Expr::col("score")), "n_score"),
                ops::AggCall::new(ops::AggFunc::Sum, Some(Expr::col("score")), "total"),
                ops::AggCall::new(ops::AggFunc::Max, Some(Expr::col("score")), "best"),
                ops::AggCall::new(ops::AggFunc::Min, Some(Expr::col("note")), "first_note"),
            ],
        )
        .unwrap();
        assert_tables_equal_rows(&actual, &expected, "aggregate");
    }
}

/// Grouped float `SUM`/`AVG` over values with no exact binary form are
/// bit-for-bit the sums of a plain row-order fold: aggregation folds every
/// group in row order, so no configuration can reorder the additions.
#[test]
fn float_sum_and_avg_equal_a_row_order_fold() {
    let schema = Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]);
    let mut builder = TableBuilder::new("t", schema);
    let rows: Vec<(i64, f64)> = (0..2_000)
        .map(|i| (i % 3, 0.1 * (i % 17) as f64 + 0.01))
        .collect();
    for &(g, x) in &rows {
        builder
            .push_row(vec![Value::Int(g), Value::Float(x)])
            .unwrap();
    }
    let out = ops::aggregate(
        &builder.build(),
        &[(Expr::col("g"), "g".to_string())],
        &[
            ops::AggCall::new(ops::AggFunc::Sum, Some(Expr::col("x")), "total"),
            ops::AggCall::new(ops::AggFunc::Avg, Some(Expr::col("x")), "mean"),
        ],
    )
    .unwrap();
    let actual: Vec<u64> = out
        .rows()
        .flat_map(|row| [row.get(1), row.get(2)])
        .map(|v| v.as_float().unwrap().to_bits())
        .collect();
    // Groups come out in first-appearance order: 0, 1, 2.
    let expected: Vec<u64> = (0..3)
        .flat_map(|group| {
            let xs = rows.iter().filter(|&&(g, _)| g == group).map(|&(_, x)| x);
            let (sum, count) = xs.fold((0.0, 0), |(sum, count), x| (sum + x, count + 1));
            [sum, sum / count as f64]
        })
        .map(f64::to_bits)
        .collect();
    assert_eq!(actual, expected);
}

/// The per-row fold grouped aggregation ran before it folded one aggregate
/// at a time, kept as the oracle: rows in order, each folded into every
/// aggregate of its group in SELECT order, so the first error met is the
/// lowest failing row's first failing aggregate.
mod row_major_fold {
    use super::*;

    /// Running state of one aggregate within one group.
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
        /// The row holding the extreme value so far: on ties the first row
        /// stays.
        Extreme(Option<usize>, Ordering),
    }

    impl AggState {
        fn new(func: ops::AggFunc) -> AggState {
            match func {
                ops::AggFunc::Count => AggState::Count(0),
                ops::AggFunc::Sum => AggState::Sum {
                    total: 0.0,
                    any: false,
                    all_int: true,
                },
                ops::AggFunc::Avg => AggState::Avg {
                    total: 0.0,
                    count: 0,
                },
                ops::AggFunc::Min => AggState::Extreme(None, Ordering::Less),
                ops::AggFunc::Max => AggState::Extreme(None, Ordering::Greater),
            }
        }

        /// Fold `values[row]` in; `values` is `None` for `COUNT(*)`.
        fn update(
            &mut self,
            values: Option<&[Value]>,
            row: usize,
            context: &str,
        ) -> EngineResult<()> {
            let value = values.map(|values| &values[row]);
            if value.is_some_and(Value::is_null) {
                return Ok(());
            }
            let number = |value: &Value| {
                value.as_float().ok_or_else(|| {
                    let found = value.data_type().prompt_name();
                    EngineError::type_mismatch(context, "a numeric value", found)
                })
            };
            match (self, value) {
                (AggState::Count(c), _) => *c += 1,
                (
                    AggState::Sum {
                        total,
                        any,
                        all_int,
                    },
                    Some(value),
                ) => {
                    *total += number(value)?;
                    *any = true;
                    *all_int &= matches!(value, Value::Int(_));
                }
                (AggState::Avg { total, count }, Some(value)) => {
                    *total += number(value)?;
                    *count += 1;
                }
                (AggState::Extreme(best, wins), Some(value)) => {
                    let values = values.expect("an extreme reads a column");
                    if best.is_none_or(|b| value.total_cmp(&values[b]) == *wins) {
                        *best = Some(row);
                    }
                }
                (_, None) => unreachable!("only COUNT(*) reads no column"),
            }
            Ok(())
        }

        fn finish(self, values: Option<&[Value]>) -> Value {
            match self {
                AggState::Count(c) => Value::Int(c),
                AggState::Sum { any: false, .. } | AggState::Avg { count: 0, .. } => Value::Null,
                AggState::Sum {
                    total,
                    all_int: true,
                    ..
                } => Value::Int(total as i64),
                AggState::Sum { total, .. } => Value::Float(total),
                AggState::Avg { total, count } => Value::Float(total / count as f64),
                AggState::Extreme(best, _) => best.map_or(Value::Null, |row| {
                    values.expect("an extreme reads a column")[row].clone()
                }),
            }
        }
    }

    /// `ops::aggregate`'s result by the row-major fold: its output columns
    /// as a builder makes them from the values, or its error.
    pub(super) fn aggregate(
        input: &Table,
        group_by: &[(Expr, String)],
        aggs: &[ops::AggCall],
    ) -> EngineResult<Vec<Column>> {
        let schema = input.schema();
        let rows = input.to_rows();
        let eval = |expr: &Expr| -> EngineResult<Vec<Value>> {
            rows.iter().map(|row| expr.evaluate(schema, row)).collect()
        };
        let keys: Vec<Vec<Value>> = group_by
            .iter()
            .map(|(e, _)| eval(e))
            .collect::<Result<_, _>>()?;
        let mut inputs = Vec::new();
        for agg in aggs {
            inputs.push(agg.expr.as_ref().map(eval).transpose()?);
        }
        let contexts: Vec<String> = aggs
            .iter()
            .map(|agg| format!("{}({})", agg.func.name(), agg.alias))
            .collect();

        let mut order: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
        let mut index: HashMap<Vec<CellKey>, usize> = HashMap::new();
        let new_states = || aggs.iter().map(|agg| AggState::new(agg.func)).collect();
        for row in 0..rows.len() {
            let key = keys.iter().map(|column| cell_key(&column[row])).collect();
            let group = *index.entry(key).or_insert_with(|| {
                let key_values = keys.iter().map(|column| column[row].clone()).collect();
                order.push((key_values, new_states()));
                order.len() - 1
            });
            let states = &mut order[group].1;
            for ((state, values), context) in states.iter_mut().zip(&inputs).zip(&contexts) {
                state.update(values.as_deref(), row, context)?;
            }
        }
        if order.is_empty() && group_by.is_empty() {
            order.push((Vec::new(), new_states()));
        }

        let mut dtypes: Vec<DataType> = group_by
            .iter()
            .map(|(e, _)| e.output_type(schema))
            .collect();
        dtypes.extend(aggs.iter().map(|agg| {
            match agg.func {
                ops::AggFunc::Count | ops::AggFunc::Sum => DataType::Int,
                ops::AggFunc::Avg => DataType::Float,
                ops::AggFunc::Min | ops::AggFunc::Max => agg
                    .expr
                    .as_ref()
                    .map_or(DataType::Null, |e| e.output_type(schema)),
            }
        }));
        let mut builders: Vec<ColumnBuilder> = dtypes
            .into_iter()
            .map(|dtype| ColumnBuilder::with_capacity(dtype, order.len()))
            .collect();
        for (key_values, states) in order {
            let results = states
                .into_iter()
                .zip(&inputs)
                .map(|(state, values)| state.finish(values.as_deref()));
            for (builder, value) in builders
                .iter_mut()
                .zip(key_values.into_iter().chain(results))
            {
                builder.push(value);
            }
        }
        Ok(builders.into_iter().map(ColumnBuilder::finish).collect())
    }
}

/// A table of `rows` rows whose columns take every physical shape an
/// aggregate reads: a nullable `Int` (`i`), `Float` (`f`), plain string
/// (`s`, never dictionary-encoded) and dictionary-encoded string (`d`, plain
/// below 16 rows), and two `Mixed` columns: `n` of ints and floats that
/// tie (`2` and `2.0`), and `m` of ints, floats and, rarely, strings.
fn aggregate_shapes(rng: &mut StdRng, rows: usize) -> Table {
    // `d` draws the first three: a row `("a\u{1}s:a", "a")` and a row
    // `("a", "a\u{1}s:a")` splice into one text under a rendered key.
    const STRINGS: [&str; 7] = ["", "a", "a\u{1}s:a", "b", "é", "中文", "ab🎨"];
    let mut column = |cell: &mut dyn FnMut(&mut StdRng) -> Value| -> Vec<Value> {
        (0..rows)
            .map(|_| match rng.gen_bool(0.15) {
                true => Value::Null,
                false => cell(rng),
            })
            .collect()
    };
    let i = column(&mut |rng| Value::Int(rng.gen_range(-3i64..4)));
    let f = column(&mut |rng| {
        Value::Float([-1.5, 0.1, 0.7, 2.25, 0.0, -0.0][rng.gen_range(0..6usize)])
    });
    let s = column(&mut |rng| Value::str(STRINGS[rng.gen_range(0..STRINGS.len())]));
    let d = column(&mut |rng| Value::str(STRINGS[rng.gen_range(0..3usize)]));
    let n = column(&mut |rng| match rng.gen_range(-2i64..3) {
        k if rng.gen_bool(0.5) => Value::Int(k),
        k => Value::Float(k as f64),
    });
    let m = column(&mut |rng| match rng.gen_range(0..40u32) {
        0 => Value::str(STRINGS[rng.gen_range(0..STRINGS.len())]),
        k if k % 2 == 0 => Value::Int(i64::from(k)),
        k => Value::Float(f64::from(k) / 4.0),
    });
    let plain = Column::from_values(s);
    let d = Column::from_values(d);
    let d = dict::encode_column(&d).unwrap_or(d);
    let columns = [
        Column::from_values(i),
        Column::from_values(f),
        plain,
        d,
        Column::from_values(n),
        Column::from_values(m),
    ];
    let schema = Schema::from_pairs(&[
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
        ("d", DataType::Str),
        ("n", DataType::Int),
        ("m", DataType::Int),
    ]);
    let columns = columns.into_iter().map(std::sync::Arc::new).collect();
    Table::from_columns("shapes", schema, columns).unwrap()
}

/// Grouped aggregation equals the row-major fold, column `Debug` for column
/// `Debug` (variant, bitmap and NULL placeholders included) or error for
/// error: with no `GROUP BY`, an int key, a dictionary key, a plain string
/// key, an int and a string key, and two string keys; `COUNT(*)`, `COUNT`, `SUM`, `AVG`, `MIN` and `MAX`
/// over every column shape; over 0, 1 and about 200 rows; and `SUM`s over
/// strings that fail at different rows.
#[test]
fn aggregates_match_a_row_major_fold() {
    use ops::{AggCall, AggFunc};
    let call = |func, column: &str| {
        AggCall::new(func, Some(Expr::col(column)), format!("{func:?}_{column}"))
    };
    let mut every = vec![AggCall::count_star("rows")];
    for column in ["i", "f", "s", "d", "n", "m"] {
        every.push(call(AggFunc::Count, column));
        every.push(call(AggFunc::Min, column));
        every.push(call(AggFunc::Max, column));
    }
    for column in ["i", "f", "n"] {
        every.push(call(AggFunc::Sum, column));
        every.push(call(AggFunc::Avg, column));
    }
    // Failing sums and averages: `s` and `d` fail at their first non-NULL
    // row, `m` at its first string. The lowest failing row wins, whatever
    // the order; at one row, the first listed.
    let failing = [
        vec![call(AggFunc::Sum, "s"), call(AggFunc::Sum, "m")],
        vec![
            call(AggFunc::Avg, "m"),
            call(AggFunc::Count, "i"),
            call(AggFunc::Sum, "d"),
        ],
        vec![call(AggFunc::Sum, "d"), call(AggFunc::Sum, "s")],
    ];
    let key = |column: &str| (Expr::col(column), column.to_string());
    let groupings = [
        vec![],
        vec![key("i")],
        vec![key("d")],
        vec![key("s")],
        vec![key("i"), key("d")],
        vec![key("s"), key("d")],
        vec![key("n")],
    ];
    let mut rng = StdRng::seed_from_u64(0xA66);
    let (mut compared, mut failed) = (0, 0);
    for _ in 0..30 {
        for rows in [0, 1, rng.gen_range(180..=220)] {
            let table = aggregate_shapes(&mut rng, rows);
            for group_by in &groupings {
                for aggs in std::iter::once(&every).chain(&failing) {
                    let expected = row_major_fold::aggregate(&table, group_by, aggs);
                    let actual = ops::aggregate(&table, group_by, aggs).map(|out| {
                        out.columns()
                            .iter()
                            .map(|c| c.as_ref().clone())
                            .collect::<Vec<_>>()
                    });
                    assert_eq!(
                        format!("{actual:?}"),
                        format!("{expected:?}"),
                        "{rows} rows by {group_by:?}: {aggs:?}"
                    );
                    compared += 1;
                    failed += usize::from(expected.is_err());
                }
            }
        }
    }
    // Both outcomes are exercised.
    assert!(
        failed > 0 && failed < compared,
        "{failed} of {compared} failed"
    );
}

/// Vectorized sort (including the typed single-int-key path) equals a stable
/// row-at-a-time sort by the same keys.
#[test]
fn sort_matches_row_at_a_time_reference() {
    let mut rng = StdRng::seed_from_u64(5);
    for case in 0..CASES {
        let table = random_table(&mut rng, 40);
        let keys = match case % 3 {
            0 => vec![ops::SortKey::desc(Expr::col("score"))],
            1 => vec![
                ops::SortKey::asc(Expr::col("team")),
                ops::SortKey::desc(Expr::col("k")),
            ],
            _ => vec![
                ops::SortKey::desc(Expr::col("note")),
                ops::SortKey::asc(Expr::col("k")),
            ],
        };
        let schema = table.schema().clone();
        let mut expected = table.to_rows();
        expected.sort_by(|a, b| {
            for key in &keys {
                let ka = key.expr.evaluate(&schema, a).unwrap();
                let kb = key.expr.evaluate(&schema, b).unwrap();
                let ord = match key.order {
                    ops::SortOrder::Asc => ka.total_cmp(&kb),
                    ops::SortOrder::Desc => ka.total_cmp(&kb).reverse(),
                };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        let actual = ops::sort(&table, &keys).unwrap();
        assert_tables_equal_rows(&actual, &expected, "sort");
    }
}

/// The rows whose keys no earlier row has, in order.
fn first_of_each_row_key(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut seen = std::collections::HashSet::new();
    rows.iter()
        .filter(|row| seen.insert(row.iter().map(cell_key).collect::<Vec<_>>()))
        .cloned()
        .collect()
}

/// DISTINCT, LIMIT, and UNION ALL agree with their row-level references.
#[test]
fn set_operators_match_row_at_a_time_reference() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..CASES {
        let table = random_table(&mut rng, 40);
        let rows = table.to_rows();

        // DISTINCT keeps the first row of each row key.
        let actual = ops::distinct(&table).unwrap();
        assert_tables_equal_rows(&actual, &first_of_each_row_key(&rows), "distinct");
        // So it does over two string columns, plain and dictionary-encoded,
        // whose cells a rendered key would splice into one text.
        let strings = ops::project(
            &aggregate_shapes(&mut rng, 40),
            &[ops::Projection::column("s"), ops::Projection::column("d")],
        )
        .unwrap();
        let expected = first_of_each_row_key(&strings.to_rows());
        let actual = ops::distinct(&strings).unwrap();
        assert_tables_equal_rows(&actual, &expected, "distinct over two strings");

        // LIMIT is a prefix.
        let n = rng.gen_range(0..50usize);
        let actual = ops::limit(&table, n).unwrap();
        assert_tables_equal_rows(&actual, &rows[..n.min(rows.len())], "limit");

        // UNION ALL is concatenation.
        let other = random_table(&mut rng, 20);
        let mut expected = rows.clone();
        expected.extend(other.to_rows());
        let actual = ops::union_all(&table, &other).unwrap();
        assert_tables_equal_rows(&actual, &expected, "union_all");
    }
}

// ---------------------------------------------------------------------------
// Engine invariants carried over from the seed property suite
// ---------------------------------------------------------------------------

/// total_cmp is a total order: antisymmetric and transitive over samples.
#[test]
fn value_ordering_is_consistent() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..CASES * 4 {
        let a = random_value(&mut rng);
        let b = random_value(&mut rng);
        let c = random_value(&mut rng);
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        assert_eq!(ab, ba.reverse());
        if ab == Ordering::Less && b.total_cmp(&c) == Ordering::Less {
            assert_eq!(a.total_cmp(&c), Ordering::Less);
        }
    }
}

/// `SELECT k, COUNT(*) AS n GROUP BY k` over a column `k` of `values`.
fn groups_of(values: Vec<Value>) -> Table {
    let schema = Schema::from_pairs(&[("k", DataType::Null)]);
    let column = std::sync::Arc::new(Column::from_values(values));
    let table = Table::from_columns("t", schema, vec![column]).unwrap();
    let key = [(Expr::col("k"), "k".to_string())];
    ops::aggregate(&table, &key, &[ops::AggCall::count_star("n")]).unwrap()
}

/// Two values that compare equal under SQL semantics form one group (the
/// generator's numbers lie within ±2^53, where `=` is exact).
#[test]
fn group_keys_respect_equality() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut equal = 0;
    for _ in 0..CASES * 4 {
        let a = random_value(&mut rng);
        let b = random_value(&mut rng);
        if a.sql_eq(&b) == Some(true) {
            let groups = groups_of(vec![a.clone(), b.clone()]);
            assert_eq!(groups.num_rows(), 1, "{a:?} = {b:?}");
            equal += 1;
        }
    }
    assert!(equal > 0);
}

/// An int and the float equal to it are one group, 10^15 and ±2^53
/// included, and the group's key is its first row's cell.
#[test]
fn an_int_and_the_float_equal_to_it_form_one_group() {
    for x in [2, 1_000_000_000_000_000, 1 << 53, -(1 << 53)] {
        let groups = groups_of(vec![Value::Int(x), Value::Float(x as f64)]);
        assert_eq!(groups.num_rows(), 1, "{x}");
        assert_eq!(groups.value(0, "n").unwrap(), Value::Int(2));
        assert!(matches!(groups.value(0, "k").unwrap(), Value::Int(k) if k == x));
    }
}

/// Two rows whose strings, tagged `s:` and joined by U+0001, spell one text
/// are two groups and two distinct rows.
#[test]
fn strings_holding_a_separator_and_a_type_tag_stay_two_rows() {
    let schema = Schema::from_pairs(&[("a", DataType::Str), ("b", DataType::Str)]);
    let mut builder = TableBuilder::new("t", schema);
    builder.push_values(["x\u{1}s:y", "z"]).unwrap();
    builder.push_values(["x", "y\u{1}s:z"]).unwrap();
    let mut catalog = Catalog::new();
    catalog.register(builder.build());
    for query in [
        "SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b",
        "SELECT DISTINCT a, b FROM t",
    ] {
        let out = sql::run_sql(&catalog, query).unwrap();
        assert_eq!(out.num_rows(), 2, "{query}");
    }
}

/// Filtering never increases the row count, and a predicate plus its negation
/// partition the rows (NULL-predicate rows are dropped by both).
#[test]
fn filter_partitions_rows() {
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..CASES {
        let values: Vec<i64> = (0..rng.gen_range(0..50usize))
            .map(|_| rng.gen_range(-100i64..100))
            .collect();
        let threshold = rng.gen_range(-100i64..100);
        let table = int_table(&values);
        let predicate = Expr::binary(Expr::col("x"), BinaryOp::Gt, Expr::lit(threshold));
        let negated = Expr::Unary {
            op: UnaryOp::Not,
            operand: Box::new(predicate.clone()),
        };
        let kept = ops::filter(&table, &predicate).unwrap();
        let dropped = ops::filter(&table, &negated).unwrap();
        assert!(kept.num_rows() <= table.num_rows());
        assert_eq!(kept.num_rows() + dropped.num_rows(), table.num_rows());
    }
}

/// Sorting preserves the multiset of rows and orders them.
#[test]
fn sort_is_an_ordered_permutation() {
    let mut rng = StdRng::seed_from_u64(10);
    for _ in 0..CASES {
        let values: Vec<i64> = (0..rng.gen_range(0..60usize))
            .map(|_| rng.gen_range(-1000i64..1000))
            .collect();
        let table = int_table(&values);
        let sorted = ops::sort(&table, &[ops::SortKey::asc(Expr::col("x"))]).unwrap();
        assert_eq!(sorted.num_rows(), table.num_rows());
        let sorted_values: Vec<i64> = sorted
            .column("x")
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        assert_eq!(sorted_values, expected);
    }
}

/// LIMIT returns exactly min(n, rows) rows; DISTINCT never increases rows and
/// is idempotent.
#[test]
fn limit_and_distinct_invariants() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..CASES {
        let values: Vec<i64> = (0..rng.gen_range(0..60usize))
            .map(|_| rng.gen_range(-20i64..20))
            .collect();
        let n = rng.gen_range(0..80usize);
        let table = int_table(&values);
        let limited = ops::limit(&table, n).unwrap();
        assert_eq!(limited.num_rows(), n.min(table.num_rows()));
        let distinct = ops::distinct(&table).unwrap();
        assert!(distinct.num_rows() <= table.num_rows());
        let twice = ops::distinct(&distinct).unwrap();
        assert_eq!(twice.num_rows(), distinct.num_rows());
    }
}

/// A COUNT(*) aggregation over SQL equals the table's row count, and a
/// grouped count sums back to the total.
#[test]
fn sql_counts_match_row_counts() {
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..CASES / 2 {
        let values: Vec<i64> = (0..rng.gen_range(1..60usize))
            .map(|_| rng.gen_range(0i64..5))
            .collect();
        let table = int_table(&values);
        let mut catalog = Catalog::new();
        catalog.register(table.clone());
        let total = sql::run_sql(&catalog, "SELECT COUNT(*) AS n FROM numbers").unwrap();
        assert_eq!(
            total.value(0, "n").unwrap().as_int().unwrap(),
            table.num_rows() as i64
        );
        let grouped =
            sql::run_sql(&catalog, "SELECT x, COUNT(*) AS n FROM numbers GROUP BY x").unwrap();
        let sum: i64 = grouped
            .column("n")
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .sum();
        assert_eq!(sum, table.num_rows() as i64);
    }
}

/// Hash-join output size equals the sum over keys of the product of the
/// per-side multiplicities.
#[test]
fn join_cardinality_matches_key_multiplicities() {
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..CASES {
        let left_keys: Vec<i64> = (0..rng.gen_range(0..30usize))
            .map(|_| rng.gen_range(0i64..6))
            .collect();
        let right_keys: Vec<i64> = (0..rng.gen_range(0..30usize))
            .map(|_| rng.gen_range(0i64..6))
            .collect();
        let left = int_table(&left_keys).renamed("left_t");
        let right = int_table(&right_keys).renamed("right_t");
        let joined = ops::hash_join(&left, &right, "x", "x").unwrap();
        let mut expected = 0usize;
        for key in 0i64..6 {
            let l = left_keys.iter().filter(|v| **v == key).count();
            let r = right_keys.iter().filter(|v| **v == key).count();
            expected += l * r;
        }
        assert_eq!(joined.num_rows(), expected);
    }
}

/// The SQL LIKE operator agrees with a simple substring check for patterns of
/// the form `%needle%` (no other wildcards).
#[test]
fn like_agrees_with_substring_for_simple_patterns() {
    let mut rng = StdRng::seed_from_u64(14);
    for _ in 0..CASES * 2 {
        let haystack = random_string(&mut rng, 16).to_lowercase();
        let needle = random_string(&mut rng, 4).to_lowercase();
        let result = caesura::engine::expr::like_match(&haystack, &format!("%{needle}%"));
        assert_eq!(result, haystack.contains(&needle));
    }
}

/// Expression evaluation of CENTURY over a year literal matches the
/// arithmetic definition.
#[test]
fn century_function_matches_definition() {
    let mut rng = StdRng::seed_from_u64(15);
    for _ in 0..CASES {
        let year = rng.gen_range(1000i64..2100);
        let schema = Schema::empty();
        let expr = Expr::Func {
            func: caesura::engine::ScalarFunc::Century,
            args: vec![Expr::lit(year)],
        };
        let result = expr.evaluate(&schema, &[]).unwrap().as_int().unwrap();
        assert_eq!(result, (year - 1) / 100 + 1);
    }
}
