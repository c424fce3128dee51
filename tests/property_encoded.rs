//! Equivalence properties for dictionary-encoded columns and the compiled
//! expression evaluator (`caesura_engine::dict` / `caesura_engine::expr`).
//!
//! Two families of properties:
//!
//! 1. **Dict ≡ plain.** Every relational operator is run twice over the same
//!    logical data — once with eligible string columns dictionary-encoded
//!    ([`dict::encode_table`]) and once fully decoded ([`dict::decode_table`]).
//!    After normalizing the outputs back to plain representation, they must be
//!    **byte-identical** (validity bitmap words and NULL placeholders
//!    included), and errors must be identical too. This pins the code-native
//!    join/group-by/sort/filter kernels to the exact semantics of the string
//!    paths they replace.
//!
//! 2. **Compiled ≡ interpreted.** Randomized expression trees — including
//!    NULL-heavy inputs, per-row type errors, division by zero, unknown
//!    columns, lazy `CASE` branches and `IN` items — are evaluated through
//!    both `Expr::evaluate_batch` (the compiled pipeline) and
//!    `Expr::evaluate_batch_interpreted` (the retained reference
//!    interpreter), over plain and dict-encoded inputs. Outputs must be
//!    byte-identical and errors equal, for selection vectors as well.

use caesura::engine::{
    dict, ops, BinaryOp, DataType, EngineError, Expr, ScalarFunc, Schema, Table, TableBuilder,
    UnaryOp, Value,
};
use rand::{Rng, SeedableRng, StdRng};

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
        // Dict column against dict column (same entry table → code compare).
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
fn fused_filter_project_dict_matches_plain_and_unfused() {
    let mut rng = StdRng::seed_from_u64(0xD1C700F0);
    let predicate = Expr::binary(Expr::col("team"), BinaryOp::Eq, Expr::lit("Spurs"));
    let projections = [
        ops::Projection::column("team"),
        ops::Projection::new(
            Expr::binary(Expr::col("k"), BinaryOp::Mul, Expr::lit(2)),
            "k2",
        ),
    ];
    for rows in [0usize, 60, 500] {
        let (plain, encoded) = both_representations(&mut rng, rows, "t");
        check_dict_vs_plain(
            &format!("fused filter_project over {rows} rows"),
            || ops::filter_project(&plain, &predicate, &projections),
            || ops::filter_project(&encoded, &predicate, &projections),
        );
        // The fused operator must also match the unfused pipeline exactly.
        let fused = ops::filter_project(&encoded, &predicate, &projections).unwrap();
        let unfused =
            ops::project(&ops::filter(&encoded, &predicate).unwrap(), &projections).unwrap();
        assert_normalized_identical(
            &dict::decode_table(&unfused),
            &dict::decode_table(&fused),
            &format!("fused vs unfused over {rows} rows"),
        );
    }
}

#[test]
fn hash_join_dict_matches_plain_in_every_combination() {
    let mut rng = StdRng::seed_from_u64(0xD1C71011);
    for rows in [0usize, 30, 350] {
        let (lplain, ldict) = both_representations(&mut rng, rows, "l");
        let (rplain, rdict) = both_representations(&mut rng, (rows / 2).max(20), "r");
        for join_type in [ops::JoinType::Inner, ops::JoinType::Left] {
            // Dict ⋈ dict with distinct entry tables (the remap path).
            check_dict_vs_plain(
                &format!("dict⋈dict {join_type:?} over {rows} rows"),
                || ops::hash_join(&lplain, &rplain, "team", "team", join_type),
                || ops::hash_join(&ldict, &rdict, "team", "team", join_type),
            );
            // Self-join: both sides share one entry table `Arc` (no remap).
            check_dict_vs_plain(
                &format!("self dict⋈dict {join_type:?} over {rows} rows"),
                || ops::hash_join(&lplain, &lplain, "team", "team", join_type),
                || ops::hash_join(&ldict, &ldict, "team", "team", join_type),
            );
            // Mixed representations on either side.
            check_dict_vs_plain(
                &format!("dict⋈plain {join_type:?} over {rows} rows"),
                || ops::hash_join(&lplain, &rplain, "team", "team", join_type),
                || ops::hash_join(&ldict, &rplain, "team", "team", join_type),
            );
            check_dict_vs_plain(
                &format!("plain⋈dict {join_type:?} over {rows} rows"),
                || ops::hash_join(&lplain, &rplain, "team", "team", join_type),
                || ops::hash_join(&lplain, &rdict, "team", "team", join_type),
            );
        }
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
            // The rank fast path, NULLs first ascending / last descending.
            ("team asc", vec![ops::SortKey::asc(Expr::col("team"))]),
            ("team desc", vec![ops::SortKey::desc(Expr::col("team"))]),
            // Two keys force the decorate path through `Column::get`.
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
// Family 2: compiled ≡ interpreted on randomized expression trees.
// ---------------------------------------------------------------------------

/// A random expression tree over the `random_table` schema. Leaves are
/// column references (occasionally unknown) and literals (occasionally
/// NULL); interior nodes cover every operator family, deliberately mixing
/// types so per-row type errors, division by zero, and lazily skipped
/// erroring branches all occur.
fn random_expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
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

/// Compiled and interpreted evaluation of `expr` over `table` must agree on
/// bytes and on errors — for full batch results and for selection vectors.
fn assert_compiled_matches_interpreted(expr: &Expr, table: &Table, context: &str) {
    let schema = table.schema();
    let (columns, rows) = (table.columns(), table.num_rows());
    let compiled = expr.evaluate_batch(schema, columns, rows);
    let interpreted = expr.evaluate_batch_interpreted(schema, columns, rows);
    match (&interpreted, &compiled) {
        (Ok(expected), Ok(actual)) => assert_eq!(
            expected.as_ref(),
            actual.as_ref(),
            "evaluate_batch differs: {context} (expr: {expr})"
        ),
        (Err(expected), Err(actual)) => assert_eq!(
            expected, actual,
            "evaluate_batch errors differ: {context} (expr: {expr})"
        ),
        (expected, actual) => panic!(
            "compiled and interpreted outcomes disagree: {context} (expr: {expr})\n  \
             interpreted: {expected:?}\n  compiled: {actual:?}"
        ),
    }
    let compiled_sel = expr.selection_vector(schema, columns, rows);
    let interpreted_sel = expr.selection_vector_interpreted(schema, columns, rows);
    match (&interpreted_sel, &compiled_sel) {
        (Ok(expected), Ok(actual)) => assert_eq!(
            expected, actual,
            "selection_vector differs: {context} (expr: {expr})"
        ),
        (Err(expected), Err(actual)) => assert_eq!(expected, actual),
        (expected, actual) => panic!(
            "selection outcomes disagree: {context} (expr: {expr})\n  \
             interpreted: {expected:?}\n  compiled: {actual:?}"
        ),
    }
}

#[test]
fn compiled_matches_interpreted_on_random_trees() {
    let mut rng = StdRng::seed_from_u64(0xC0DEEB57);
    for rows in [0usize, 1, 230] {
        let (plain, encoded) = both_representations(&mut rng, rows, "t");
        for case in 0..60 {
            let expr = random_expr(&mut rng, 3);
            let label = format!("case {case}, {rows} rows");
            assert_compiled_matches_interpreted(&expr, &plain, &format!("plain {label}"));
            assert_compiled_matches_interpreted(&expr, &encoded, &format!("dict {label}"));
            // Dict transparency at the expression level: compiled results
            // over encoded inputs decode to the plain bytes.
            let on_plain = expr.evaluate_batch(plain.schema(), plain.columns(), plain.num_rows());
            let on_dict =
                expr.evaluate_batch(encoded.schema(), encoded.columns(), encoded.num_rows());
            match (&on_plain, &on_dict) {
                (Ok(p), Ok(d)) => assert_eq!(
                    dict::decode_column(p),
                    dict::decode_column(d),
                    "dict-input result differs from plain-input result: {label} (expr: {expr})"
                ),
                (Err(p), Err(d)) => assert_eq!(p, d),
                (p, d) => panic!(
                    "plain/dict outcomes disagree: {label} (expr: {expr})\n  \
                     plain: {p:?}\n  dict: {d:?}"
                ),
            }
        }
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
        // Constant-folded division by zero: the error is pre-computed but
        // must still surface per evaluation.
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
        assert_compiled_matches_interpreted(expr, &plain, &format!("error expr #{i}"));
        assert_compiled_matches_interpreted(expr, &encoded, &format!("error expr #{i} (dict)"));
    }
}

#[test]
fn lazy_branches_never_evaluate_their_errors() {
    let mut rng = StdRng::seed_from_u64(0xC0DE01A2);
    let (plain, encoded) = both_representations(&mut rng, 120, "t");
    let div_zero = Expr::binary(Expr::lit(1), BinaryOp::Div, Expr::lit(0));
    // The untaken CASE branch contains a constant-folded error.
    let case = Expr::Case {
        branches: vec![(Expr::lit(false), div_zero.clone())],
        otherwise: Some(Box::new(Expr::lit(2))),
    };
    // The IN list short-circuits on the first match, before the error item;
    // on the dict fast path the scan is memoized per entry.
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
        assert_compiled_matches_interpreted(&case, table, "lazy case");
        assert_compiled_matches_interpreted(&in_list, table, "lazy in-list");
    }
}
