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
    ops, sql, BinaryOp, Catalog, DataType, Expr, Schema, Table, TableBuilder, UnaryOp, Value,
};
use rand::{Rng, SeedableRng, StdRng};
use std::cmp::Ordering;

const CASES: usize = 250;

/// A random value mirroring the old proptest strategy: NULL, bool, int,
/// float, or a short alphanumeric string.
fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range(-1_000_000i64..1_000_000)),
        3 => Value::Float(rng.gen_range(-1_000_000i64..1_000_000) as f64 / 7.0),
        _ => Value::str(random_string(rng, 12)),
    }
}

fn random_string(rng: &mut StdRng, max_len: usize) -> String {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| CHARSET[rng.gen_range(0..CHARSET.len())] as char)
        .collect()
}

fn int_table(values: &[i64]) -> Table {
    let schema = Schema::from_pairs(&[("x", DataType::Int)]);
    let mut builder = TableBuilder::new("numbers", schema);
    for v in values {
        builder.push_row(vec![Value::Int(*v)]).unwrap();
    }
    builder.build()
}

/// A random mixed-type table: an int column with NULLs, a float column, and a
/// low-cardinality string column — the shapes the operators see in practice.
fn random_table(rng: &mut StdRng, max_rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("score", DataType::Float),
        ("team", DataType::Str),
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
        builder
            .push_row(vec![
                k,
                Value::Float(rng.gen_range(0i64..1000) as f64 / 10.0),
                Value::str(teams[rng.gen_range(0..teams.len())]),
            ])
            .unwrap();
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
        let threshold = rng.gen_range(-20i64..20);
        let predicate = Expr::binary(Expr::col("k"), BinaryOp::Gt, Expr::lit(threshold));
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
        // Alternate between the int-key and string-key fast paths.
        let key = if case % 2 == 0 { "k" } else { "team" };
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
                if lrow[key_idx].group_key() == rrow[key_idx].group_key() {
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
/// reference for COUNT(*), COUNT, SUM, MIN, and MAX.
#[test]
fn aggregate_matches_row_at_a_time_reference() {
    let mut rng = StdRng::seed_from_u64(4);
    for case in 0..CASES {
        let table = random_table(&mut rng, 40);
        let group_col = if case % 2 == 0 { "k" } else { "team" };
        let group_idx = table.schema().resolve(group_col).unwrap();
        let score_idx = table.schema().resolve("score").unwrap();

        // Reference: first-seen-order groups over materialized rows.
        let mut order: Vec<String> = Vec::new();
        let mut groups: std::collections::HashMap<String, (Value, i64, i64, f64, Option<Value>)> =
            std::collections::HashMap::new();
        for row in table.to_rows() {
            let key = row[group_idx].group_key();
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key.clone());
                (row[group_idx].clone(), 0, 0, 0.0, None)
            });
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
                let (value, count_star, count, sum, max) = groups[key].clone();
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

/// Vectorized sort (including the typed single-int-key path) equals a stable
/// row-at-a-time sort by the same keys.
#[test]
fn sort_matches_row_at_a_time_reference() {
    let mut rng = StdRng::seed_from_u64(5);
    for case in 0..CASES {
        let table = random_table(&mut rng, 40);
        let keys = if case % 2 == 0 {
            vec![ops::SortKey::desc(Expr::col("score"))]
        } else {
            vec![
                ops::SortKey::asc(Expr::col("team")),
                ops::SortKey::desc(Expr::col("k")),
            ]
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

/// DISTINCT, LIMIT, and UNION ALL agree with their row-level references.
#[test]
fn set_operators_match_row_at_a_time_reference() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..CASES {
        let table = random_table(&mut rng, 40);
        let rows = table.to_rows();

        // DISTINCT keeps the first occurrence of each rendered row key.
        let mut seen = std::collections::HashSet::new();
        let expected: Vec<Vec<Value>> = rows
            .iter()
            .filter(|row| {
                let key: Vec<String> = row.iter().map(|v| v.group_key()).collect();
                seen.insert(key.join("\u{1}"))
            })
            .cloned()
            .collect();
        let actual = ops::distinct(&table).unwrap();
        assert_tables_equal_rows(&actual, &expected, "distinct");

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

/// Values that compare equal under SQL semantics share a group key.
#[test]
fn group_keys_respect_equality() {
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..CASES * 4 {
        let a = random_value(&mut rng);
        let b = random_value(&mut rng);
        if a.sql_eq(&b) == Some(true) {
            assert_eq!(a.group_key(), b.group_key());
        }
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
