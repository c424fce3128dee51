//! Parallel-vs-sequential equivalence properties for the morsel-driven
//! execution subsystem (`caesura_engine::parallel`).
//!
//! Every relational operator is run twice over the same inputs: once under
//! `ExecConfig::sequential()` (the reference — byte-for-byte the original
//! single-threaded code paths) and once per parallel configuration drawn
//! from `threads ∈ {2, 4, 8} × morsel_rows ∈ {1, 7, 1024}`. The outputs
//! must be **byte-identical**: the comparison uses the derived
//! representation-level equality of [`Column`], which includes the validity
//! bitmap words, NULL placeholder values, and the storage variant — not just
//! the logical cell values. Errors must be identical too (the parallel path
//! reports the error of the earliest morsel, which is the error of the first
//! failing row, exactly like a sequential scan).
//!
//! Floating-point test data is restricted to dyadic rationals (multiples of
//! 1/4 with small magnitude) so that SUM/AVG partial sums are exact and the
//! morsel-merge addition order cannot produce last-ulp differences — the one
//! place where parallel floating-point aggregation is otherwise only
//! deterministic, not bitwise equal to the row-order fold (see the
//! `parallel` module docs).
//!
//! A second family of tests pins determinism: repeated parallel runs of sort
//! and aggregation produce identical bytes regardless of worker
//! interleaving, stability and first-seen group order included.

use caesura::engine::parallel::{self, ExecConfig, Region};
use caesura::engine::{
    ops, BinaryOp, DataType, EngineError, Expr, ScalarFunc, Schema, Table, TableBuilder, Value,
};
use rand::{Rng, SeedableRng, StdRng};

const THREADS: &[usize] = &[2, 4, 8];
const MORSEL_ROWS: &[usize] = &[1, 7, 1024];

fn parallel_configs() -> Vec<ExecConfig> {
    let mut configs = Vec::new();
    for &threads in THREADS {
        for &morsel_rows in MORSEL_ROWS {
            configs.push(ExecConfig::new(threads, morsel_rows));
        }
    }
    configs
}

/// Byte-level table equality: schema, row count, and the exact storage
/// representation of every column (validity bitmaps and NULL placeholders
/// included, via `Column`'s derived `PartialEq`).
fn assert_tables_byte_identical(expected: &Table, actual: &Table, context: &str) {
    assert_eq!(
        expected.name(),
        actual.name(),
        "table name differs: {context}"
    );
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

/// Run an operator under the sequential reference configuration and under
/// every parallel configuration, asserting identical outputs (or identical
/// errors).
fn check_operator(context: &str, run: impl Fn() -> Result<Table, EngineError>) {
    let reference = parallel::with_config(ExecConfig::sequential(), &run);
    for config in parallel_configs() {
        let label = format!(
            "{context} [threads={}, morsel_rows={}]",
            config.threads, config.morsel_rows
        );
        let result = parallel::with_config(config, &run);
        match (&reference, &result) {
            (Ok(expected), Ok(actual)) => assert_tables_byte_identical(expected, actual, &label),
            (Err(expected), Err(actual)) => {
                assert_eq!(expected, actual, "errors differ: {label}")
            }
            (expected, actual) => panic!(
                "sequential and parallel outcomes disagree: {label}\n  sequential: {expected:?}\n  parallel: {actual:?}"
            ),
        }
    }
}

/// A deterministic pseudo-random table with the shapes the operators see in
/// practice: an int key with NULLs, an exactly-representable float score
/// with NULLs, a low-cardinality team string, and a free-form label string.
fn random_table(rng: &mut StdRng, rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("score", DataType::Float),
        ("team", DataType::Str),
        ("label", DataType::Str),
    ]);
    let teams = ["Heat", "Spurs", "Bulls", "Lakers", "Celtics"];
    let mut builder = TableBuilder::new("random_t", schema);
    for i in 0..rows {
        let k = if rng.gen_bool(0.12) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(-25i64..25))
        };
        let score = if rng.gen_bool(0.08) {
            Value::Null
        } else {
            // Dyadic rationals: partial sums are exact, so parallel SUM/AVG
            // merges are bitwise equal to the sequential fold.
            Value::Float(rng.gen_range(-2000i64..2000) as f64 / 4.0)
        };
        builder
            .push_row(vec![
                k,
                score,
                Value::str(teams[rng.gen_range(0..teams.len())]),
                Value::str(format!("row-{}", i % 13)),
            ])
            .unwrap();
    }
    builder.build()
}

/// A side table keyed by `team` for join coverage (one team is missing, so
/// left joins exercise NULL padding).
fn team_table() -> Table {
    let schema = Schema::from_pairs(&[("team", DataType::Str), ("conference", DataType::Str)]);
    let mut builder = TableBuilder::new("teams", schema);
    for (team, conference) in [
        ("Heat", "Eastern"),
        ("Spurs", "Western"),
        ("Bulls", "Eastern"),
        ("Lakers", "Western"),
        // "Celtics" intentionally absent.
    ] {
        builder.push_values([team, conference]).unwrap();
    }
    builder.build()
}

/// An int-keyed right side with duplicate keys and NULLs for the typed i64
/// join path.
fn int_keyed_table(rng: &mut StdRng, rows: usize) -> Table {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("payload", DataType::Str)]);
    let mut builder = TableBuilder::new("keyed", schema);
    for i in 0..rows {
        let k = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Int(rng.gen_range(-25i64..25))
        };
        builder
            .push_row(vec![k, Value::str(format!("p{i}"))])
            .unwrap();
    }
    builder.build()
}

/// The suite below is only worth its name while the pinned configurations
/// reach the parallel kernels. The default configuration gates every
/// relational region behind its measured minimum row count; an explicit
/// `ExecConfig::new` pin does not — checked on the predicate, and on the
/// calling thread's count of pool fan-outs around each operator.
#[test]
fn pinned_configs_run_the_parallel_kernels_and_a_gated_one_below_its_minimum_does_not() {
    for config in parallel_configs() {
        for region in Region::ALL {
            assert!(config.should_parallelize(region, config.morsel_rows + 1));
        }
    }
    let mut rng = StdRng::seed_from_u64(0x6A7E);
    let table = random_table(&mut rng, 250);
    let keyed = int_keyed_table(&mut rng, 120);
    let predicate = Expr::binary(Expr::col("k"), BinaryOp::Gt, Expr::lit(0));
    let indices: Vec<usize> = (0..250).rev().collect();
    let fan_outs = |config: ExecConfig, run: &dyn Fn()| {
        let before = parallel::fan_outs_on_this_thread();
        parallel::with_config(config, run);
        parallel::fan_outs_on_this_thread() - before
    };
    let pinned = ExecConfig::new(4, 7);
    let gated = ExecConfig {
        gated: true,
        ..pinned
    };
    let check = |name: &str, run: &dyn Fn()| {
        assert!(fan_outs(pinned, run) > 0, "{name} stayed sequential");
        assert_eq!(
            fan_outs(gated, run),
            0,
            "{name} fanned out below its minimum"
        );
        assert_eq!(fan_outs(ExecConfig::sequential(), run), 0, "{name}");
    };
    check("filter", &|| drop(ops::filter(&table, &predicate)));
    check("join", &|| {
        drop(ops::hash_join(
            &table,
            &keyed,
            "k",
            "k",
            ops::JoinType::Left,
        ))
    });
    check("aggregate", &|| {
        let calls = [ops::AggCall::count_star("n")];
        drop(ops::aggregate(
            &table,
            &[(Expr::col("team"), "team".into())],
            &calls,
        ))
    });
    check("sort", &|| {
        drop(ops::sort(&table, &[ops::SortKey::asc(Expr::col("label"))]))
    });
    check("take", &|| drop(table.take(&indices)));
}

#[test]
fn filter_parallel_matches_sequential() {
    let mut rng = StdRng::seed_from_u64(0xF117E5);
    let predicates = [
        Expr::binary(Expr::col("k"), BinaryOp::Gt, Expr::lit(0)),
        Expr::binary(Expr::col("team"), BinaryOp::Eq, Expr::lit("Heat")),
        Expr::binary(Expr::col("score"), BinaryOp::LtEq, Expr::lit(120.5)),
        // Three-valued logic over two nullable columns.
        Expr::binary(Expr::col("k"), BinaryOp::Lt, Expr::lit(10)).and(Expr::binary(
            Expr::col("score"),
            BinaryOp::Gt,
            Expr::lit(-100),
        )),
        Expr::binary(Expr::col("label"), BinaryOp::Like, Expr::lit("row-1%")),
        // Everything survives → the zero-copy shared-columns shortcut.
        Expr::lit(true),
        // Nothing survives.
        Expr::lit(false),
    ];
    for rows in [0usize, 1, 9, 250, 1500] {
        let table = random_table(&mut rng, rows);
        for (i, predicate) in predicates.iter().enumerate() {
            check_operator(&format!("filter #{i} over {rows} rows"), || {
                ops::filter(&table, predicate)
            });
        }
    }
}

#[test]
fn filter_errors_are_identical_in_parallel() {
    let mut rng = StdRng::seed_from_u64(0xE5507);
    let table = random_table(&mut rng, 700);
    // Comparing a string column to a number is a per-row type error; the
    // parallel path must report exactly the sequential error.
    let bad = Expr::binary(Expr::col("team"), BinaryOp::Gt, Expr::lit(3));
    check_operator("type-error predicate", || ops::filter(&table, &bad));
    let unknown = Expr::binary(Expr::col("missing"), BinaryOp::Eq, Expr::lit(1));
    check_operator("unknown-column predicate", || ops::filter(&table, &unknown));
}

#[test]
fn project_parallel_matches_sequential() {
    let mut rng = StdRng::seed_from_u64(0x9801EC7);
    for rows in [0usize, 13, 400, 1300] {
        let table = random_table(&mut rng, rows);
        let projections = [
            ops::Projection::column("team"),
            ops::Projection::new(
                Expr::binary(Expr::col("k"), BinaryOp::Mul, Expr::lit(3)),
                "k3",
            ),
            ops::Projection::new(
                Expr::Func {
                    func: ScalarFunc::Upper,
                    args: vec![Expr::col("team")],
                },
                "team_uc",
            ),
            ops::Projection::new(
                Expr::Case {
                    branches: vec![(
                        Expr::binary(Expr::col("k"), BinaryOp::Gt, Expr::lit(0)),
                        Expr::lit("pos"),
                    )],
                    otherwise: Some(Box::new(Expr::lit("non-pos"))),
                },
                "sign",
            ),
        ];
        check_operator(&format!("project over {rows} rows"), || {
            ops::project(&table, &projections)
        });
    }
}

#[test]
fn plain_column_projection_stays_zero_copy_under_parallel_config() {
    let mut rng = StdRng::seed_from_u64(0xA5C);
    let table = random_table(&mut rng, 2000);
    parallel::with_config(ExecConfig::new(8, 7), || {
        let out = ops::project(&table, &[ops::Projection::column("team")]).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(
                table.column_data("team").unwrap(),
                out.column_at(0).unwrap()
            ),
            "a plain column projection must remain an Arc bump even when parallelism is enabled"
        );
    });
}

#[test]
fn sort_parallel_matches_sequential() {
    let mut rng = StdRng::seed_from_u64(0x50127);
    for rows in [0usize, 1, 10, 333, 1800] {
        let table = random_table(&mut rng, rows);
        // Typed int fast path needs a NULL-free int key: sort by a computed
        // non-null key too.
        let key_sets: Vec<(String, Vec<ops::SortKey>)> = vec![
            ("int asc".into(), vec![ops::SortKey::asc(Expr::col("k"))]),
            ("int desc".into(), vec![ops::SortKey::desc(Expr::col("k"))]),
            (
                "team asc, score desc".into(),
                vec![
                    ops::SortKey::asc(Expr::col("team")),
                    ops::SortKey::desc(Expr::col("score")),
                ],
            ),
            (
                "constant key (pure stability)".into(),
                vec![ops::SortKey::asc(Expr::lit(1))],
            ),
        ];
        for (label, keys) in &key_sets {
            check_operator(&format!("sort by {label} over {rows} rows"), || {
                ops::sort(&table, keys)
            });
        }
    }
}

#[test]
fn sort_typed_fast_path_parallel_matches_sequential() {
    // A dense all-valid Int64 key with many duplicates drives the typed
    // comparator through the parallel run-merge sort.
    let schema = Schema::from_pairs(&[("x", DataType::Int), ("tag", DataType::Str)]);
    let mut builder = TableBuilder::new("dense", schema);
    let mut rng = StdRng::seed_from_u64(0xD05E);
    for i in 0..2500 {
        builder
            .push_row(vec![
                Value::Int(rng.gen_range(0i64..40)),
                Value::str(format!("t{i}")),
            ])
            .unwrap();
    }
    let table = builder.build();
    for keys in [
        vec![ops::SortKey::asc(Expr::col("x"))],
        vec![ops::SortKey::desc(Expr::col("x"))],
    ] {
        check_operator("typed int sort", || ops::sort(&table, &keys));
    }
}

#[test]
fn hash_join_parallel_matches_sequential() {
    let mut rng = StdRng::seed_from_u64(0x10117);
    for rows in [0usize, 17, 300, 1400] {
        let left = random_table(&mut rng, rows);
        let teams = team_table();
        let ints = int_keyed_table(&mut rng, (rows / 2).max(8));
        for join_type in [ops::JoinType::Inner, ops::JoinType::Left] {
            check_operator(
                &format!("utf8-key {join_type:?} join over {rows} rows"),
                || ops::hash_join(&left, &teams, "team", "team", join_type),
            );
            check_operator(
                &format!("i64-key {join_type:?} join over {rows} rows"),
                || ops::hash_join(&left, &ints, "k", "k", join_type),
            );
            // Int-vs-float keys go through the generic rendered-key path.
            check_operator(
                &format!("generic-key {join_type:?} join over {rows} rows"),
                || ops::hash_join(&left, &left, "score", "score", join_type),
            );
        }
    }
}

#[test]
fn aggregate_parallel_matches_sequential() {
    let mut rng = StdRng::seed_from_u64(0xA66);
    for rows in [0usize, 5, 260, 1700] {
        let table = random_table(&mut rng, rows);
        let all_aggs = [
            ops::AggCall::count_star("n"),
            ops::AggCall::new(ops::AggFunc::Count, Some(Expr::col("score")), "n_score"),
            ops::AggCall::new(ops::AggFunc::Sum, Some(Expr::col("score")), "total"),
            ops::AggCall::new(ops::AggFunc::Avg, Some(Expr::col("score")), "avg"),
            ops::AggCall::new(ops::AggFunc::Min, Some(Expr::col("k")), "min_k"),
            ops::AggCall::new(ops::AggFunc::Max, Some(Expr::col("k")), "max_k"),
        ];
        // Typed single-int-key path (with a NULL group).
        check_operator(&format!("aggregate by int key over {rows} rows"), || {
            ops::aggregate(&table, &[(Expr::col("k"), "k".to_string())], &all_aggs)
        });
        // Generic string-key path.
        check_operator(&format!("aggregate by team over {rows} rows"), || {
            ops::aggregate(
                &table,
                &[(Expr::col("team"), "team".to_string())],
                &all_aggs,
            )
        });
        // Composite key path.
        check_operator(&format!("aggregate by (team, k) over {rows} rows"), || {
            ops::aggregate(
                &table,
                &[
                    (Expr::col("team"), "team".to_string()),
                    (Expr::col("k"), "k".to_string()),
                ],
                &all_aggs,
            )
        });
        // Global aggregation (one group, even over empty input).
        check_operator(&format!("global aggregate over {rows} rows"), || {
            ops::aggregate(&table, &[], &all_aggs)
        });
    }
}

#[test]
fn aggregate_type_errors_are_identical_in_parallel() {
    let mut rng = StdRng::seed_from_u64(0xBAD5);
    let table = random_table(&mut rng, 900);
    check_operator("SUM over a string column", || {
        ops::aggregate(
            &table,
            &[(Expr::col("k"), "k".to_string())],
            &[ops::AggCall::new(
                ops::AggFunc::Sum,
                Some(Expr::col("team")),
                "bad",
            )],
        )
    });
}

#[test]
fn evaluate_batch_and_selection_vector_parallel_match_sequential() {
    let mut rng = StdRng::seed_from_u64(0xEB57);
    let table = random_table(&mut rng, 1100);
    let exprs = [
        Expr::binary(Expr::col("k"), BinaryOp::Add, Expr::col("k")),
        Expr::binary(Expr::col("score"), BinaryOp::Mul, Expr::lit(2)),
        Expr::Func {
            func: ScalarFunc::Length,
            args: vec![Expr::col("label")],
        },
        Expr::InList {
            expr: Box::new(Expr::col("team")),
            list: vec![Expr::lit("Heat"), Expr::lit("Spurs")],
            negated: false,
        },
        Expr::Unary {
            op: caesura::engine::UnaryOp::IsNull,
            operand: Box::new(Expr::col("k")),
        },
    ];
    for (i, expr) in exprs.iter().enumerate() {
        let reference = parallel::with_config(ExecConfig::sequential(), || {
            expr.evaluate_batch(table.schema(), table.columns(), table.num_rows())
                .unwrap()
        });
        let reference_sel = parallel::with_config(ExecConfig::sequential(), || {
            expr.selection_vector(table.schema(), table.columns(), table.num_rows())
        });
        for config in parallel_configs() {
            let (batch, selection) = parallel::with_config(config, || {
                (
                    expr.evaluate_batch(table.schema(), table.columns(), table.num_rows())
                        .unwrap(),
                    expr.selection_vector(table.schema(), table.columns(), table.num_rows()),
                )
            });
            assert_eq!(
                reference.as_ref(),
                batch.as_ref(),
                "evaluate_batch #{i} differs under {config:?}"
            );
            match (&reference_sel, &selection) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "selection_vector #{i} differs under {config:?}")
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                other => panic!("selection_vector outcome mismatch: {other:?}"),
            }
        }
    }
}

#[test]
fn take_parallel_matches_sequential() {
    let mut rng = StdRng::seed_from_u64(0x7A4E);
    let table = random_table(&mut rng, 1500);
    let mut indices: Vec<usize> = (0..table.num_rows()).collect();
    // A permutation plus duplicates.
    indices.reverse();
    indices.extend((0..200).map(|_| rng.gen_range(0..table.num_rows())));
    check_operator("take with permutation + duplicates", || {
        Ok(table.take(&indices))
    });
}

#[test]
fn distinct_union_limit_parallel_match_sequential() {
    // The set operators ride on the shared kernels; keep them covered so the
    // subsystem cannot silently change their behaviour.
    let mut rng = StdRng::seed_from_u64(0x5E7);
    let a = random_table(&mut rng, 800);
    let b = random_table(&mut rng, 700).renamed("random_t");
    check_operator("distinct", || ops::distinct(&a));
    check_operator("union_all", || ops::union_all(&a, &b));
    check_operator("limit", || ops::limit(&a, 123));
}

// ---------------------------------------------------------------------------
// Determinism: identical bytes across repeated parallel runs, regardless of
// worker interleaving.
// ---------------------------------------------------------------------------

#[test]
fn parallel_sort_is_deterministic_and_stable_across_runs() {
    let mut rng = StdRng::seed_from_u64(0xDE7);
    let table = random_table(&mut rng, 2100);
    // Many duplicate keys → heavy tie-breaking; morsel_rows=7 → hundreds of
    // runs to merge, maximising scheduling nondeterminism exposure.
    let keys = vec![ops::SortKey::asc(Expr::col("team"))];
    let config = ExecConfig::new(8, 7);
    let reference = parallel::with_config(config, || ops::sort(&table, &keys).unwrap());
    for run in 0..5 {
        let again = parallel::with_config(config, || ops::sort(&table, &keys).unwrap());
        assert_tables_byte_identical(&reference, &again, &format!("sort determinism run {run}"));
    }
    // And stability: equal keys keep their input order.
    let sequential = parallel::with_config(ExecConfig::sequential(), || {
        ops::sort(&table, &keys).unwrap()
    });
    assert_tables_byte_identical(&sequential, &reference, "sort stability vs sequential");
}

#[test]
fn parallel_aggregate_group_order_is_canonical_across_runs() {
    let mut rng = StdRng::seed_from_u64(0xCA90);
    let table = random_table(&mut rng, 2300);
    let group_by = [(Expr::col("team"), "team".to_string())];
    let aggs = [
        ops::AggCall::count_star("n"),
        ops::AggCall::new(ops::AggFunc::Sum, Some(Expr::col("score")), "total"),
    ];
    let config = ExecConfig::new(8, 7);
    let reference =
        parallel::with_config(config, || ops::aggregate(&table, &group_by, &aggs).unwrap());
    for run in 0..5 {
        let again =
            parallel::with_config(config, || ops::aggregate(&table, &group_by, &aggs).unwrap());
        assert_tables_byte_identical(
            &reference,
            &again,
            &format!("aggregate determinism run {run}"),
        );
    }
    // Canonical order = first-seen row order, i.e. the sequential order.
    let sequential = parallel::with_config(ExecConfig::sequential(), || {
        ops::aggregate(&table, &group_by, &aggs).unwrap()
    });
    assert_tables_byte_identical(&sequential, &reference, "group order vs sequential");
}

// ---------------------------------------------------------------------------
// Randomized sweep: random tables through a random operator pipeline.
// ---------------------------------------------------------------------------

#[test]
fn random_operator_pipelines_are_parallel_equivalent() {
    let mut rng = StdRng::seed_from_u64(0x9A11E7);
    for case in 0..25 {
        let rows = rng.gen_range(0..900);
        let table = random_table(&mut rng, rows);
        let threshold = rng.gen_range(-25i64..25);
        let predicate = Expr::binary(Expr::col("k"), BinaryOp::GtEq, Expr::lit(threshold));
        let keys = vec![ops::SortKey::desc(Expr::col("score"))];
        let group_by = [(Expr::col("team"), "team".to_string())];
        let aggs = [
            ops::AggCall::new(ops::AggFunc::Max, Some(Expr::col("score")), "best"),
            ops::AggCall::count_star("n"),
        ];
        check_operator(&format!("pipeline case {case} ({rows} rows)"), || {
            let filtered = ops::filter(&table, &predicate)?;
            let sorted = ops::sort(&filtered, &keys)?;
            ops::aggregate(&sorted, &group_by, &aggs)
        });
    }
}
