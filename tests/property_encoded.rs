//! Equivalence properties for dictionary-encoded columns
//! (`caesura_engine::dict`), at the operator and at the expression level.
//!
//! Two families of properties:
//!
//! 1. **Dict ≡ plain operators.** Every relational operator is run twice over
//!    the same logical data — once with eligible string columns
//!    dictionary-encoded ([`dict::encode_table`]) and once fully decoded
//!    ([`dict::decode_table`]). After normalizing the outputs back to plain
//!    representation, they must be **byte-identical** (validity bitmap words
//!    and NULL placeholders included), and errors must be identical too. This
//!    pins the three code-native kernels — the dict group-by, the dict
//!    column-vs-literal compare and `LIKE`, and the plain ⋈ dict join probe —
//!    to the exact semantics of the string paths they replace, and checks
//!    that every other operator (sorts, `IN` lists, column-vs-column
//!    compares, joins probed by a dict key, a `WHERE` feeding a projection)
//!    reads dict columns exactly as it reads plain ones.
//!
//! 2. **Dict ≡ plain expressions.** Randomized expression trees — including
//!    NULL-heavy inputs, per-row type errors, division by zero, unknown
//!    columns, lazy `CASE` branches and `IN` items — are evaluated through
//!    `Expr::evaluate_batch` and `Expr::selection_vector` over plain and
//!    dict-encoded inputs. Decoded results must be byte-identical, and
//!    errors and selection vectors equal. The same trees go through the row
//!    evaluator too: where both succeed, they agree cell for cell, and one
//!    fails exactly when the other does. At the same row counts, calls of
//!    every scalar function over plain, dict-encoded, nullable and `Mixed`
//!    argument columns and scalars go through `Expr::evaluate_batch` and
//!    the row evaluator, which must agree cell for cell and error for error;
//!    calls whose arguments nest unary operators, `CASE` and `IN` must agree
//!    cell for cell and fail together.

use caesura::engine::{
    dict, ops, sql, BinaryOp, Catalog, Column, DataType, DateValue, EngineError, Expr, ScalarFunc,
    Schema, Table, TableBuilder, UnaryOp, Value,
};
use rand::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

/// Byte-level table equality after normalizing any dict columns to plain.
fn assert_normalized_identical(expected: &Table, actual: &Table, context: &str) {
    assert_eq!(expected.name(), actual.name(), "name differs: {context}");
    assert_eq!(
        expected.schema(),
        actual.schema(),
        "schema differs: {context}"
    );
    assert_eq!(
        expected.num_rows(),
        actual.num_rows(),
        "row count differs: {context}"
    );
    for (i, (a, b)) in expected.columns().iter().zip(actual.columns()).enumerate() {
        assert_eq!(
            a.as_ref(),
            b.as_ref(),
            "column {i} ('{}') differs byte-for-byte: {context}",
            expected.schema().names()[i]
        );
    }
}

/// Run the same operator over plain and dict-encoded inputs; decoded
/// outputs (and errors) must match exactly.
fn check_dict_vs_plain(
    context: &str,
    plain_run: impl Fn() -> Result<Table, EngineError>,
    dict_run: impl Fn() -> Result<Table, EngineError>,
) {
    let plain = plain_run().map(|t| dict::decode_table(&t));
    let encoded = dict_run().map(|t| dict::decode_table(&t));
    match (&plain, &encoded) {
        (Ok(expected), Ok(actual)) => assert_normalized_identical(expected, actual, context),
        (Err(expected), Err(actual)) => assert_eq!(expected, actual, "errors differ: {context}"),
        (expected, actual) => panic!(
            "plain and dict outcomes disagree: {context}\n  plain: {expected:?}\n  dict: {actual:?}"
        ),
    }
}

/// A deterministic pseudo-random table: an int key with NULLs, a float score
/// (not exactly representable in binary) with NULLs, a low-cardinality team string with NULLs, and a
/// 13-value label string — both string columns are dict-eligible.
fn random_table(rng: &mut StdRng, rows: usize, name: &str) -> Table {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("score", DataType::Float),
        ("team", DataType::Str),
        ("label", DataType::Str),
    ]);
    let teams = ["Heat", "Spurs", "Bulls", "Lakers", "Celtics"];
    let mut builder = TableBuilder::new(name, schema);
    for i in 0..rows {
        let k = if rng.gen_bool(0.12) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(-25i64..25))
        };
        let score = if rng.gen_bool(0.08) {
            Value::Null
        } else {
            Value::Float(rng.gen_range(-2_000_000i64..2_000_000) as f64 / 997.0)
        };
        let team = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::str(teams[rng.gen_range(0..teams.len())])
        };
        builder
            .push_row(vec![k, score, team, Value::str(format!("row-{}", i % 13))])
            .unwrap();
    }
    builder.build()
}

/// Plain + dict-encoded versions of the same table, whatever ingest chose
/// for it.
fn both_representations(rng: &mut StdRng, rows: usize, name: &str) -> (Table, Table) {
    let base = random_table(rng, rows, name);
    let plain = dict::decode_table(&base);
    let encoded = dict::encode_table(&base);
    if rows >= 80 {
        let team = plain.schema().resolve("team").unwrap();
        assert!(
            encoded.columns()[team].as_dict().is_some(),
            "low-cardinality team column must dictionary-encode"
        );
    }
    (plain, encoded)
}

// ---------------------------------------------------------------------------
// Family 1: dict ≡ plain per operator.
// ---------------------------------------------------------------------------

#[test]
fn filter_dict_matches_plain() {
    let mut rng = StdRng::seed_from_u64(0xD1C7F117);
    let predicates = [
        Expr::binary(Expr::col("team"), BinaryOp::Eq, Expr::lit("Heat")),
        Expr::binary(Expr::col("team"), BinaryOp::NotEq, Expr::lit("Spurs")),
        Expr::binary(Expr::col("team"), BinaryOp::Lt, Expr::lit("Lakers")),
        Expr::binary(Expr::col("team"), BinaryOp::Like, Expr::lit("%s")),
        Expr::InList {
            expr: Box::new(Expr::col("team")),
            list: vec![Expr::lit("Heat"), Expr::lit("Bulls"), Expr::lit("Nets")],
            negated: false,
        },
        Expr::InList {
            expr: Box::new(Expr::col("team")),
            list: vec![Expr::lit("Celtics")],
            negated: true,
        },
        // Dict column against itself (one entry table on both sides).
        Expr::binary(Expr::col("team"), BinaryOp::Eq, Expr::col("team")),
        // Dict column against a differently encoded column.
        Expr::binary(Expr::col("team"), BinaryOp::Eq, Expr::col("label")),
        // Everything / nothing survives.
        Expr::lit(true),
        Expr::lit(false),
    ];
    for rows in [0usize, 1, 40, 400] {
        let (plain, encoded) = both_representations(&mut rng, rows, "t");
        for (i, predicate) in predicates.iter().enumerate() {
            check_dict_vs_plain(
                &format!("filter #{i} over {rows} rows"),
                || ops::filter(&plain, predicate),
                || ops::filter(&encoded, predicate),
            );
        }
    }
}

#[test]
fn project_dict_matches_plain() {
    let mut rng = StdRng::seed_from_u64(0xD1C79801);
    let projections = [
        ops::Projection::column("team"),
        ops::Projection::new(
            Expr::Func {
                func: ScalarFunc::Upper,
                args: vec![Expr::col("team")],
            },
            "team_uc",
        ),
        ops::Projection::new(
            Expr::Func {
                func: ScalarFunc::Concat,
                args: vec![Expr::col("team"), Expr::lit("-"), Expr::col("label")],
            },
            "tag",
        ),
        ops::Projection::new(
            Expr::Case {
                branches: vec![(
                    Expr::binary(Expr::col("team"), BinaryOp::Eq, Expr::lit("Heat")),
                    Expr::lit("hot"),
                )],
                otherwise: Some(Box::new(Expr::lit("cold"))),
            },
            "temp",
        ),
    ];
    for rows in [0usize, 25, 300] {
        let (plain, encoded) = both_representations(&mut rng, rows, "t");
        check_dict_vs_plain(
            &format!("project over {rows} rows"),
            || ops::project(&plain, &projections),
            || ops::project(&encoded, &projections),
        );
    }
}

#[test]
fn sql_where_then_project_dict_matches_plain() {
    let mut rng = StdRng::seed_from_u64(0xD1C700F0);
    let query = "SELECT team, k * 2 AS k2 FROM t WHERE team = 'Spurs'";
    for rows in [0usize, 60, 500] {
        let (plain, encoded) = both_representations(&mut rng, rows, "t");
        let catalog_of = |table: Table| {
            let mut catalog = Catalog::new();
            catalog.register(table);
            catalog
        };
        let (plain, encoded) = (catalog_of(plain), catalog_of(encoded));
        check_dict_vs_plain(
            &format!("{query} over {rows} rows"),
            || sql::run_sql(&plain, query),
            || sql::run_sql(&encoded, query),
        );
    }
}

#[test]
fn hash_join_dict_matches_plain_in_every_combination() {
    let mut rng = StdRng::seed_from_u64(0xD1C71011);
    for rows in [0usize, 30, 350] {
        let (lplain, ldict) = both_representations(&mut rng, rows, "l");
        let (rplain, rdict) = both_representations(&mut rng, (rows / 2).max(20), "r");
        // Dict ⋈ dict with distinct entry tables.
        check_dict_vs_plain(
            &format!("dict⋈dict over {rows} rows"),
            || ops::hash_join(&lplain, &rplain, "team", "team"),
            || ops::hash_join(&ldict, &rdict, "team", "team"),
        );
        // Self-join: both sides share one entry table `Arc`.
        check_dict_vs_plain(
            &format!("self dict⋈dict over {rows} rows"),
            || ops::hash_join(&lplain, &lplain, "team", "team"),
            || ops::hash_join(&ldict, &ldict, "team", "team"),
        );
        // Mixed representations on either side.
        check_dict_vs_plain(
            &format!("dict⋈plain over {rows} rows"),
            || ops::hash_join(&lplain, &rplain, "team", "team"),
            || ops::hash_join(&ldict, &rplain, "team", "team"),
        );
        check_dict_vs_plain(
            &format!("plain⋈dict over {rows} rows"),
            || ops::hash_join(&lplain, &rplain, "team", "team"),
            || ops::hash_join(&lplain, &rdict, "team", "team"),
        );
    }
}

#[test]
fn aggregate_dict_matches_plain() {
    let mut rng = StdRng::seed_from_u64(0xD1C70A66);
    let aggs = [
        ops::AggCall::count_star("n"),
        ops::AggCall::new(ops::AggFunc::Sum, Some(Expr::col("score")), "total"),
        ops::AggCall::new(ops::AggFunc::Min, Some(Expr::col("k")), "min_k"),
        ops::AggCall::new(ops::AggFunc::Max, Some(Expr::col("team")), "max_team"),
    ];
    for rows in [0usize, 18, 320, 1200] {
        let (plain, encoded) = both_representations(&mut rng, rows, "t");
        // Single dict key (the dense code path, including a NULL group).
        check_dict_vs_plain(
            &format!("aggregate by team over {rows} rows"),
            || ops::aggregate(&plain, &[(Expr::col("team"), "team".to_string())], &aggs),
            || ops::aggregate(&encoded, &[(Expr::col("team"), "team".to_string())], &aggs),
        );
        // Composite key with a dict member (the rendered-key path).
        let composite = [
            (Expr::col("team"), "team".to_string()),
            (Expr::col("k"), "k".to_string()),
        ];
        check_dict_vs_plain(
            &format!("aggregate by (team, k) over {rows} rows"),
            || ops::aggregate(&plain, &composite, &aggs),
            || ops::aggregate(&encoded, &composite, &aggs),
        );
    }
}

#[test]
fn sort_dict_matches_plain() {
    let mut rng = StdRng::seed_from_u64(0xD1C75017);
    for rows in [0usize, 1, 45, 600] {
        let (plain, encoded) = both_representations(&mut rng, rows, "t");
        let key_sets: Vec<(&str, Vec<ops::SortKey>)> = vec![
            // NULLs first ascending / last descending.
            ("team asc", vec![ops::SortKey::asc(Expr::col("team"))]),
            ("team desc", vec![ops::SortKey::desc(Expr::col("team"))]),
            // Two keys, one of them an int.
            (
                "team asc, k desc",
                vec![
                    ops::SortKey::asc(Expr::col("team")),
                    ops::SortKey::desc(Expr::col("k")),
                ],
            ),
        ];
        for (label, keys) in &key_sets {
            check_dict_vs_plain(
                &format!("sort by {label} over {rows} rows"),
                || ops::sort(&plain, keys),
                || ops::sort(&encoded, keys),
            );
        }
    }
}

#[test]
fn distinct_union_limit_dict_match_plain() {
    let mut rng = StdRng::seed_from_u64(0xD1C705E7);
    let (aplain, adict) = both_representations(&mut rng, 500, "t");
    let (bplain, bdict) = both_representations(&mut rng, 300, "t");
    check_dict_vs_plain(
        "distinct",
        || ops::distinct(&aplain),
        || ops::distinct(&adict),
    );
    // Same entry table on both sides: the concatenated column stays dict.
    check_dict_vs_plain(
        "union_all with itself",
        || ops::union_all(&aplain, &aplain),
        || ops::union_all(&adict, &adict),
    );
    // Distinct entry tables: concat degrades to plain values, same bytes.
    check_dict_vs_plain(
        "union_all across tables",
        || ops::union_all(&aplain, &bplain),
        || ops::union_all(&adict, &bdict),
    );
    check_dict_vs_plain(
        "limit",
        || ops::limit(&aplain, 123),
        || ops::limit(&adict, 123),
    );
}

// ---------------------------------------------------------------------------
// Family 2: dict ≡ plain on randomized expression trees.
// ---------------------------------------------------------------------------

/// A random expression tree over the `random_table` schema. Leaves are
/// column references (occasionally to a name that does not resolve, which
/// can land in a `CASE` branch no row takes or an `IN` item no row reaches)
/// and literals (occasionally NULL); interior nodes cover every operator
/// family, deliberately mixing types so per-row type errors, division by
/// zero, and lazily skipped erroring branches all occur.
fn random_expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        if rng.gen_bool(0.04) {
            return Expr::col(["missing", "t.missing"][rng.gen_range(0..2usize)]);
        }
        return match rng.gen_range(0..8) {
            0 => Expr::col("k"),
            1 => Expr::col("score"),
            2 => Expr::col("team"),
            3 => Expr::col("label"),
            4 => Expr::lit(rng.gen_range(-3i64..4)),
            5 => Expr::lit(rng.gen_range(-16i64..16) as f64 / 4.0),
            6 => Expr::lit(["Heat", "row-1", "%s", ""][rng.gen_range(0..4usize)]),
            _ => Expr::Literal(Value::Null),
        };
    }
    match rng.gen_range(0..10) {
        0..=3 => {
            let ops = [
                BinaryOp::Add,
                BinaryOp::Sub,
                BinaryOp::Mul,
                BinaryOp::Div,
                BinaryOp::Mod,
                BinaryOp::Eq,
                BinaryOp::NotEq,
                BinaryOp::Lt,
                BinaryOp::LtEq,
                BinaryOp::Gt,
                BinaryOp::GtEq,
                BinaryOp::And,
                BinaryOp::Or,
                BinaryOp::Like,
            ];
            Expr::binary(
                random_expr(rng, depth - 1),
                ops[rng.gen_range(0..ops.len())],
                random_expr(rng, depth - 1),
            )
        }
        4 => Expr::Unary {
            op: [
                UnaryOp::Neg,
                UnaryOp::Not,
                UnaryOp::IsNull,
                UnaryOp::IsNotNull,
            ][rng.gen_range(0..4usize)],
            operand: Box::new(random_expr(rng, depth - 1)),
        },
        5 | 6 => {
            let funcs = [
                ScalarFunc::Upper,
                ScalarFunc::Lower,
                ScalarFunc::Length,
                ScalarFunc::Abs,
                ScalarFunc::Coalesce,
                ScalarFunc::CastStr,
                ScalarFunc::Min2,
            ];
            let func = funcs[rng.gen_range(0..funcs.len())];
            let arity = match func {
                ScalarFunc::Coalesce | ScalarFunc::Min2 => 2,
                _ => 1,
            };
            Expr::Func {
                func,
                args: (0..arity).map(|_| random_expr(rng, depth - 1)).collect(),
            }
        }
        7 | 8 => Expr::InList {
            expr: Box::new(random_expr(rng, depth - 1)),
            list: (0..rng.gen_range(0..4))
                .map(|_| random_expr(rng, depth - 1))
                .collect(),
            negated: rng.gen_bool(0.5),
        },
        _ => Expr::Case {
            branches: (0..rng.gen_range(1..3))
                .map(|_| (random_expr(rng, depth - 1), random_expr(rng, depth - 1)))
                .collect(),
            otherwise: if rng.gen_bool(0.6) {
                Some(Box::new(random_expr(rng, depth - 1)))
            } else {
                None
            },
        },
    }
}

/// Evaluating `expr` over the plain and the dict-encoded table must agree:
/// decoded batch results byte for byte, errors, and selection vectors.
fn assert_dict_matches_plain(expr: &Expr, plain: &Table, encoded: &Table, context: &str) {
    let on_plain = expr.evaluate_batch(plain.schema(), plain.columns(), plain.num_rows());
    let on_dict = expr.evaluate_batch(encoded.schema(), encoded.columns(), encoded.num_rows());
    match (&on_plain, &on_dict) {
        (Ok(p), Ok(d)) => assert_eq!(
            dict::decode_column(p),
            dict::decode_column(d),
            "evaluate_batch differs: {context} (expr: {expr})"
        ),
        (Err(p), Err(d)) => assert_eq!(
            p, d,
            "evaluate_batch errors differ: {context} (expr: {expr})"
        ),
        (p, d) => panic!(
            "plain and dict outcomes disagree: {context} (expr: {expr})\n  \
             plain: {p:?}\n  dict: {d:?}"
        ),
    }
    let plain_sel = expr.selection_vector(plain.schema(), plain.columns(), plain.num_rows());
    let dict_sel = expr.selection_vector(encoded.schema(), encoded.columns(), encoded.num_rows());
    match (&plain_sel, &dict_sel) {
        (Ok(p), Ok(d)) => assert_eq!(p, d, "selection_vector differs: {context} (expr: {expr})"),
        (Err(p), Err(d)) => assert_eq!(p, d, "selection_vector errors differ: {context}"),
        (p, d) => panic!(
            "selection outcomes disagree: {context} (expr: {expr})\n  \
             plain: {p:?}\n  dict: {d:?}"
        ),
    }
}

#[test]
fn dict_matches_plain_on_random_trees() {
    let mut rng = StdRng::seed_from_u64(0xC0DEEB57);
    for rows in [0usize, 1, 230] {
        let (plain, encoded) = both_representations(&mut rng, rows, "t");
        for case in 0..60 {
            let expr = random_expr(&mut rng, 3);
            let context = format!("case {case}, {rows} rows");
            assert_dict_matches_plain(&expr, &plain, &encoded, &context);
            for table in [&plain, &encoded] {
                let (schema, columns) = (table.schema(), table.columns());
                assert_batch_agrees_with_row_evaluator(&expr, schema, columns, rows, &context);
            }
        }
        // Scalar functions over argument columns of every representation:
        // the column kernel against the row evaluator.
        let (schema, columns) = function_arguments(&mut rng, rows);
        for func in SCALAR_FUNCS {
            for case in 0..12 {
                let expr = random_call(&mut rng, func, 1, false);
                let context = format!("{} case {case}, {rows} rows", func.name());
                assert_batch_matches_row_evaluator(&expr, &schema, &columns, rows, &context);
            }
            for case in 0..6 {
                let expr = random_call(&mut rng, func, 2, true);
                let context = format!("{} with operators, case {case}, {rows} rows", func.name());
                assert_batch_agrees_with_row_evaluator(&expr, &schema, &columns, rows, &context);
            }
        }
    }
}

const SCALAR_FUNCS: [ScalarFunc; 17] = [
    ScalarFunc::Lower,
    ScalarFunc::Upper,
    ScalarFunc::Length,
    ScalarFunc::Substr,
    ScalarFunc::CastInt,
    ScalarFunc::CastFloat,
    ScalarFunc::CastStr,
    ScalarFunc::Concat,
    ScalarFunc::Abs,
    ScalarFunc::Round,
    ScalarFunc::Coalesce,
    ScalarFunc::ExtractYear,
    ScalarFunc::Century,
    ScalarFunc::Trim,
    ScalarFunc::Replace,
    ScalarFunc::Min2,
    ScalarFunc::Max2,
];

/// Pieces of the strings scalar functions read: ASCII digit runs of 3, 4
/// and 5 around the `500..=2100` year window, multi-byte letters, and
/// digits of other scripts (Arabic-Indic, fullwidth).
const STRING_PIECES: [&str; 20] = [
    "499",
    "500",
    "0499",
    "0500",
    "1503",
    "1889",
    "2100",
    "2101",
    "12345",
    "-01-05",
    "c. ",
    " ",
    "é",
    "日本",
    "🎨",
    "٢٠٢٠",
    "２０２０",
    "Madonna",
    "-",
    "3.5",
];

fn random_text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..4))
        .map(|_| STRING_PIECES[rng.gen_range(0..STRING_PIECES.len())])
        .collect()
}

/// A scalar of any runtime type, NULL included.
fn random_scalar(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..8) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int([-3, 0, 2, 499, 1503, 2101][rng.gen_range(0..6usize)]),
        3 => Value::Float([-2.5, -0.0, 0.0, 1.5, 1889.7, 3.0][rng.gen_range(0..6usize)]),
        4 => Value::Date(DateValue::new(rng.gen_range(400..2200), 1, 5)),
        5 => Value::image(format!("img/{}.png", rng.gen_range(0..3))),
        6 => Value::text(random_text(rng)),
        _ => Value::str(random_text(rng)),
    }
}

/// The argument columns of [`random_call`], `rows` long: plain strings,
/// low-cardinality strings dictionary-encoded wherever ingest would encode
/// them, nullable ints and floats, and a `Mixed` column of every runtime
/// type.
fn function_arguments(rng: &mut StdRng, rows: usize) -> (Schema, Vec<Arc<Column>>) {
    let nullable = |rng: &mut StdRng, value: Value| {
        if rng.gen_bool(0.15) {
            Value::Null
        } else {
            value
        }
    };
    let labels: Vec<String> = (0..12).map(|_| random_text(rng)).collect();
    let mut plain = Vec::new();
    let mut labelled = Vec::new();
    let mut ints = Vec::new();
    let mut floats = Vec::new();
    let mut mixed = Vec::new();
    for _ in 0..rows {
        let text = Value::str(random_text(rng));
        plain.push(nullable(rng, text));
        let label = Value::str(&labels[rng.gen_range(0..labels.len())]);
        labelled.push(nullable(rng, label));
        let int = Value::Int(rng.gen_range(-3i64..2200));
        ints.push(nullable(rng, int));
        let float = Value::Float(rng.gen_range(-8i64..8) as f64 / 4.0);
        floats.push(nullable(rng, float));
        mixed.push(random_scalar(rng));
    }
    let labelled = Column::from_values(labelled);
    let columns = vec![
        Column::from_values(plain),
        dict::encode_column(&labelled).unwrap_or(labelled),
        Column::from_values(ints),
        Column::from_values(floats),
        Column::Mixed(mixed),
    ];
    let schema = Schema::from_pairs(&[
        ("s", DataType::Str),
        ("d", DataType::Str),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("m", DataType::Str),
    ]);
    (schema, columns.into_iter().map(Arc::new).collect())
}

/// A call of `func`, usually with an argument count it takes; arguments are
/// columns, scalars and, `depth` levels down, calls, and with `operators`
/// unary operators, `CASE` and `IN` nodes too.
fn random_call(rng: &mut StdRng, func: ScalarFunc, depth: usize, operators: bool) -> Expr {
    let arity = if rng.gen_bool(0.1) {
        rng.gen_range(0..4)
    } else {
        match func {
            ScalarFunc::Concat | ScalarFunc::Coalesce => rng.gen_range(0..4),
            ScalarFunc::Substr => rng.gen_range(2..4),
            ScalarFunc::Round => rng.gen_range(1..3),
            ScalarFunc::Replace => 3,
            ScalarFunc::Min2 | ScalarFunc::Max2 => 2,
            _ => 1,
        }
    };
    let args = (0..arity)
        .map(|_| random_argument(rng, depth, operators))
        .collect();
    Expr::Func { func, args }
}

/// An argument of [`random_call`].
fn random_argument(rng: &mut StdRng, depth: usize, operators: bool) -> Expr {
    let argument = |rng: &mut StdRng| random_argument(rng, depth - 1, operators);
    match rng.gen_range(0..if operators { 13 } else { 10 }) {
        0..=5 => Expr::col(["s", "d", "i", "f", "m"][rng.gen_range(0..5usize)]),
        6 | 7 => Expr::Literal(random_scalar(rng)),
        8 | 9 if depth > 0 => {
            let inner = SCALAR_FUNCS[rng.gen_range(0..SCALAR_FUNCS.len())];
            random_call(rng, inner, depth - 1, operators)
        }
        10 if depth > 0 => Expr::Unary {
            op: [
                UnaryOp::Neg,
                UnaryOp::Not,
                UnaryOp::IsNull,
                UnaryOp::IsNotNull,
            ][rng.gen_range(0..4usize)],
            operand: Box::new(argument(rng)),
        },
        11 if depth > 0 => Expr::Case {
            branches: (0..rng.gen_range(1..3))
                .map(|_| (argument(rng), argument(rng)))
                .collect(),
            otherwise: rng.gen_bool(0.6).then(|| Box::new(argument(rng))),
        },
        12 if depth > 0 => Expr::InList {
            expr: Box::new(argument(rng)),
            list: (0..rng.gen_range(0..4)).map(|_| argument(rng)).collect(),
            negated: rng.gen_bool(0.5),
        },
        _ => Expr::col("s"),
    }
}

/// `expr` through `evaluate_batch` equals the row evaluator cell for cell,
/// column representation included (compared through `Debug`, so `1` and
/// `1.0` in a `Mixed` column, or `0.0` and `-0.0`, differ), and a failing
/// batch fails with the row evaluator's first error in row order.
fn assert_batch_matches_row_evaluator(
    expr: &Expr,
    schema: &Schema,
    columns: &[Arc<Column>],
    rows: usize,
    context: &str,
) {
    let batch = expr.evaluate_batch(schema, columns, rows);
    let by_rows = row_evaluator(expr, schema, columns, rows).map(Column::from_values);
    match (&batch, &by_rows) {
        (Ok(batch), Ok(by_rows)) => assert_eq!(
            format!("{:?}", batch.as_ref()),
            format!("{by_rows:?}"),
            "kernel and row evaluator differ: {context} (expr: {expr})"
        ),
        (Err(batch), Err(by_rows)) => assert_eq!(
            batch, by_rows,
            "kernel and row evaluator fail differently: {context} (expr: {expr})"
        ),
        (batch, by_rows) => panic!(
            "kernel and row evaluator disagree: {context} (expr: {expr})\n  \
             kernel: {batch:?}\n  rows: {by_rows:?}"
        ),
    }
}

/// `expr` row by row, through the row evaluator, bound before the first row
/// so an unknown name fails over zero rows too; its first error in row
/// order.
fn row_evaluator(
    expr: &Expr,
    schema: &Schema,
    columns: &[Arc<Column>],
    rows: usize,
) -> Result<Vec<Value>, EngineError> {
    expr.bind(schema)?;
    (0..rows)
        .map(|i| expr.evaluate_at(schema, columns, i))
        .collect()
}

/// `expr` through `evaluate_batch` and through the row evaluator: where both
/// succeed their cells are equal through `Debug` (so `1` and `1.0` differ),
/// and one fails exactly when the other does. Which error each reports may
/// differ: rows failing in different ways fail in kernel order in a batch
/// and in row order in the row evaluator.
fn assert_batch_agrees_with_row_evaluator(
    expr: &Expr,
    schema: &Schema,
    columns: &[Arc<Column>],
    rows: usize,
    context: &str,
) {
    let batch = expr.evaluate_batch(schema, columns, rows);
    let by_rows = row_evaluator(expr, schema, columns, rows);
    match (&batch, &by_rows) {
        (Ok(batch), Ok(by_rows)) => assert_eq!(
            format!("{:?}", batch.to_values()),
            format!("{by_rows:?}"),
            "batch and row evaluator differ: {context} (expr: {expr})"
        ),
        (Err(_), Err(_)) => {}
        (batch, by_rows) => panic!(
            "batch and row evaluator disagree: {context} (expr: {expr})\n  \
             batch: {batch:?}\n  rows: {by_rows:?}"
        ),
    }
}

#[test]
fn division_by_zero_and_type_errors_are_identical() {
    let mut rng = StdRng::seed_from_u64(0xC0DE0BAD);
    let (plain, encoded) = both_representations(&mut rng, 150, "t");
    let exprs = [
        // Division by zero on every valid row.
        Expr::binary(Expr::col("k"), BinaryOp::Div, Expr::lit(0)),
        Expr::binary(Expr::col("score"), BinaryOp::Mod, Expr::lit(0)),
        // Division by zero in a constant subtree, raised once for the
        // whole batch.
        Expr::binary(
            Expr::col("k"),
            BinaryOp::Add,
            Expr::binary(Expr::lit(1), BinaryOp::Div, Expr::lit(0)),
        ),
        // Per-row type errors (string vs number arithmetic/order).
        Expr::binary(Expr::col("team"), BinaryOp::Add, Expr::lit(1)),
        Expr::binary(Expr::col("team"), BinaryOp::Gt, Expr::lit(3)),
        // Unknown columns, bare and nested inside lazy constructs.
        Expr::binary(Expr::col("missing"), BinaryOp::Eq, Expr::lit(1)),
        Expr::InList {
            expr: Box::new(Expr::col("team")),
            list: vec![Expr::lit("Heat"), Expr::col("missing")],
            negated: false,
        },
    ];
    for (i, expr) in exprs.iter().enumerate() {
        let outcome = expr.evaluate_batch(plain.schema(), plain.columns(), plain.num_rows());
        assert!(outcome.is_err(), "error expr #{i} must fail (expr: {expr})");
        assert_dict_matches_plain(expr, &plain, &encoded, &format!("error expr #{i}"));
    }
}

#[test]
fn lazy_branches_never_evaluate_their_errors() {
    let mut rng = StdRng::seed_from_u64(0xC0DE01A2);
    let (plain, encoded) = both_representations(&mut rng, 120, "t");
    let div_zero = Expr::binary(Expr::lit(1), BinaryOp::Div, Expr::lit(0));
    // The untaken CASE branch contains a constant error.
    let case = Expr::Case {
        branches: vec![(Expr::lit(false), div_zero.clone())],
        otherwise: Some(Box::new(Expr::lit(2))),
    };
    // The IN list short-circuits on the first match, before the error item.
    let in_list = Expr::InList {
        expr: Box::new(Expr::col("team")),
        list: vec![
            Expr::lit("Heat"),
            Expr::lit("Spurs"),
            Expr::lit("Bulls"),
            Expr::lit("Lakers"),
            Expr::lit("Celtics"),
            div_zero,
        ],
        negated: false,
    };
    for table in [&plain, &encoded] {
        case.evaluate_batch(table.schema(), table.columns(), table.num_rows())
            .expect("untaken CASE branch must stay unevaluated");
        in_list
            .evaluate_batch(table.schema(), table.columns(), table.num_rows())
            .expect("IN must short-circuit before the erroring item");
    }
    assert_dict_matches_plain(&case, &plain, &encoded, "lazy case");
    assert_dict_matches_plain(&in_list, &plain, &encoded, "lazy in-list");
}

/// An unknown name fails both evaluators with the same error wherever it
/// sits — a `CASE` branch no row takes, an `IN` item no row reaches, or
/// beside an operand that fails on every row, on either side — and at any
/// row count: names resolve before the first row, so the error reported is
/// the unknown name's, never a value error, in the batch, in the selection
/// vector and in the row evaluator alike.
#[test]
fn unknown_names_fail_both_evaluators_wherever_they_sit() {
    let mut rng = StdRng::seed_from_u64(0xC0DE0B1D);
    let (plain, encoded) = both_representations(&mut rng, 90, "t");
    let (empty, _) = both_representations(&mut rng, 0, "t");
    let missing = || Expr::col("missing");
    let one_over_zero = || Expr::binary(Expr::lit(1), BinaryOp::Div, Expr::lit(0));
    let exprs = [
        // A branch whose condition is NULL on every row.
        Expr::Case {
            branches: vec![(Expr::Literal(Value::Null), missing())],
            otherwise: Some(Box::new(Expr::col("k"))),
        },
        // An item after one every non-NULL needle matches; NULL needles
        // reach no item.
        Expr::InList {
            expr: Box::new(Expr::col("team")),
            list: vec![Expr::col("team"), missing()],
            negated: false,
        },
        // `1 / 0 + missing` and `missing + 1 / 0`.
        Expr::binary(one_over_zero(), BinaryOp::Add, missing()),
        Expr::binary(missing(), BinaryOp::Add, one_over_zero()),
        // `ABS('x') + missing`: a type error on the left.
        Expr::binary(
            Expr::Func {
                func: ScalarFunc::Abs,
                args: vec![Expr::lit("x")],
            },
            BinaryOp::Add,
            missing(),
        ),
        // `k / 0 > 1 AND missing = 1`: a per-row division by zero first.
        Expr::binary(
            Expr::binary(
                Expr::binary(Expr::col("k"), BinaryOp::Div, Expr::lit(0)),
                BinaryOp::Gt,
                Expr::lit(1),
            ),
            BinaryOp::And,
            Expr::binary(missing(), BinaryOp::Eq, Expr::lit(1)),
        ),
    ];
    for expr in &exprs {
        for table in [&plain, &encoded, &empty] {
            let (schema, columns, rows) = (table.schema(), table.columns(), table.num_rows());
            let unknown = schema.resolve("missing").unwrap_err();
            let context = format!("{rows} rows (expr: {expr})");
            let batch = expr.evaluate_batch(schema, columns, rows);
            assert_eq!(batch.unwrap_err(), unknown, "batch, {context}");
            let selection = expr.selection_vector(schema, columns, rows);
            assert_eq!(selection.unwrap_err(), unknown, "selection, {context}");
            let by_rows = row_evaluator(expr, schema, columns, rows);
            assert_eq!(by_rows.unwrap_err(), unknown, "row evaluator, {context}");
            for i in (rows > 0).then(|| [0, rows - 1]).into_iter().flatten() {
                let row = expr.evaluate_at(schema, columns, i);
                assert_eq!(row.unwrap_err(), unknown, "row {i}, {context}");
            }
        }
    }
}
