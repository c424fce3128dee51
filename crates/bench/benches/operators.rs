//! Micro-benchmarks of the physical operators (relational and multi-modal)
//! at several input cardinalities.

use caesura_bench::{scores_table, teams_table};
use caesura_data::{generate_artwork, ArtworkConfig};
use caesura_engine::{dict, ops, sql, DataType, Expr, Schema, Table, TableBuilder, Value};
use caesura_modal::operators::{apply_python_udf, apply_visual_qa, Perception};
use caesura_modal::{BatchConfig, TransformCodegen, VisualQaModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Columnar-scale benches: filter / aggregate / join / project / sort at
/// 10k–1M rows. These are the numbers recorded in BENCH_operators.json.
fn bench_columnar_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("columnar");
    group.sample_size(12);
    for &size in &[10_000usize, 100_000, 1_000_000] {
        let scores = scores_table(size);
        let teams = teams_table();
        let predicate = sql::parse_expression("points > 100").unwrap();

        group.bench_with_input(BenchmarkId::new("filter", size), &size, |b, _| {
            b.iter(|| ops::filter(black_box(&scores), &predicate).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("aggregate", size), &size, |b, _| {
            b.iter(|| {
                ops::aggregate(
                    black_box(&scores),
                    &[(Expr::col("team"), "team".to_string())],
                    &[
                        ops::AggCall::new(
                            ops::AggFunc::Max,
                            Some(Expr::col("points")),
                            "max_points",
                        ),
                        ops::AggCall::count_star("games"),
                    ],
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("join", size), &size, |b, _| {
            b.iter(|| {
                ops::hash_join(
                    black_box(&scores),
                    black_box(&teams),
                    "team",
                    "team",
                    ops::JoinType::Inner,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("project_2cols", size), &size, |b, _| {
            let projections = [
                ops::Projection::column("team"),
                ops::Projection::column("points"),
            ];
            b.iter(|| ops::project(black_box(&scores), &projections).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("sort_by_points", size), &size, |b, _| {
            b.iter(|| {
                ops::sort(
                    black_box(&scores),
                    &[ops::SortKey::desc(Expr::col("points"))],
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

/// A table keyed by a string column of controllable cardinality, used to
/// compare plain vs dictionary-encoded execution.
fn keyed_table(rows: usize, cardinality: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("name", DataType::Str),
        ("points", DataType::Int),
    ]);
    let mut builder = TableBuilder::new("keyed", schema);
    for i in 0..rows {
        builder
            .push_row(vec![
                Value::Int(i as i64),
                Value::str(format!("key-{:06}", i % cardinality)),
                Value::Int(60 + ((i * 37) % 90) as i64),
            ])
            .unwrap();
    }
    builder.build()
}

/// A build side holding every distinct key of `keyed_table(_, cardinality)`.
fn key_side(cardinality: usize) -> Table {
    let schema = Schema::from_pairs(&[("name", DataType::Str), ("bucket", DataType::Int)]);
    let mut builder = TableBuilder::new("side", schema);
    for i in 0..cardinality {
        builder
            .push_row(vec![
                Value::str(format!("key-{i:06}")),
                Value::Int((i % 7) as i64),
            ])
            .unwrap();
    }
    builder.build()
}

/// The pre-PR-6 filter→project pipeline: unfused, through the retained
/// interpreted expression evaluator. The baseline `encoded/*_compiled`
/// numbers are measured against.
fn filter_project_interpreted(
    input: &Table,
    predicate: &Expr,
    projections: &[ops::Projection],
) -> Table {
    let selected = predicate
        .selection_vector_interpreted(input.schema(), input.columns(), input.num_rows())
        .unwrap();
    let filtered = input.take(&selected);
    let columns: Vec<_> = projections
        .iter()
        .map(|p| {
            p.expr
                .evaluate_batch_interpreted(
                    filtered.schema(),
                    filtered.columns(),
                    filtered.num_rows(),
                )
                .unwrap()
        })
        .collect();
    let schema = Schema::from_pairs(
        &projections
            .iter()
            .map(|p| (p.alias.as_str(), DataType::Null))
            .collect::<Vec<_>>(),
    );
    Table::from_columns("out", schema, columns).unwrap()
}

/// Encoded-execution benches: the same join / grouped aggregate /
/// filter→project workload over plain vs dictionary-encoded string key
/// columns (`encoded/<op>_{plain,dict}_{low,high}`), and interpreted vs
/// compiled expression pipelines (`encoded/filter_project_{interpreted,compiled}`).
/// Low cardinality = 8 distinct keys (dict-eligible); high = rows/2 distinct
/// keys (ingest declines to encode, both representations are plain — the
/// no-win case the auto-selection heuristic exists for).
fn bench_encoded(c: &mut Criterion) {
    let mut group = c.benchmark_group("encoded");
    group.sample_size(10);
    for &size in &[100_000usize, 1_000_000] {
        for (card_label, cardinality) in [("low", 8usize), ("high", size / 2)] {
            // The slow join/aggregate benches keep the small sample budget;
            // filter_project below raises it again.
            group.sample_size(10);
            let base = keyed_table(size, cardinality);
            let plain = dict::decode_table(&base);
            let encoded = dict::encode_table(&base);
            let side_plain = dict::decode_table(&key_side(cardinality));
            let side_encoded = dict::encode_table(&key_side(cardinality));

            for (repr, table, side) in [
                ("plain", &plain, &side_plain),
                ("dict", &encoded, &side_encoded),
            ] {
                group.bench_with_input(
                    BenchmarkId::new(format!("join_{repr}_{card_label}"), size),
                    &size,
                    |b, _| {
                        b.iter(|| {
                            ops::hash_join(
                                black_box(table),
                                black_box(side),
                                "name",
                                "name",
                                ops::JoinType::Inner,
                            )
                            .unwrap()
                        })
                    },
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("aggregate_{repr}_{card_label}"), size),
                    &size,
                    |b, _| {
                        b.iter(|| {
                            ops::aggregate(
                                black_box(table),
                                &[(Expr::col("name"), "name".to_string())],
                                &[
                                    ops::AggCall::new(
                                        ops::AggFunc::Max,
                                        Some(Expr::col("points")),
                                        "max_points",
                                    ),
                                    ops::AggCall::count_star("n"),
                                ],
                            )
                            .unwrap()
                        })
                    },
                );
            }

            // Interpreted vs compiled filter→project, both over the encoded
            // table (the representation every query sees by default). These
            // routines are two orders of magnitude cheaper than the joins
            // above, so buy extra samples — the median has to resist system
            // drift over the long whole-suite run.
            group.sample_size(40);
            let predicate = sql::parse_expression("name = 'key-000003'").unwrap();
            let projections = [
                ops::Projection::column("name"),
                ops::Projection::new(
                    sql::parse_expression("points * 2").unwrap(),
                    "double_points",
                ),
            ];
            group.bench_with_input(
                BenchmarkId::new(format!("filter_project_interpreted_{card_label}"), size),
                &size,
                |b, _| {
                    b.iter(|| {
                        filter_project_interpreted(black_box(&encoded), &predicate, &projections)
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("filter_project_compiled_{card_label}"), size),
                &size,
                |b, _| {
                    b.iter(|| {
                        ops::filter_project(black_box(&encoded), &predicate, &projections).unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_operators(c: &mut Criterion) {
    let mut group = c.benchmark_group("operators");
    for &size in &[100usize, 1000] {
        let data = generate_artwork(&ArtworkConfig {
            num_paintings: size,
            seed: 42,
            madonna_probability: 0.25,
        });
        let catalog = data.lake.catalog().clone();
        let metadata = catalog.table("paintings_metadata").unwrap().clone();
        let images = catalog.table("painting_images").unwrap().clone();
        let store = data.lake.images().clone();

        group.bench_with_input(BenchmarkId::new("hash_join", size), &size, |b, _| {
            b.iter(|| {
                ops::hash_join(
                    black_box(&metadata),
                    black_box(&images),
                    "img_path",
                    "img_path",
                    ops::JoinType::Inner,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("filter", size), &size, |b, _| {
            let predicate = sql::parse_expression("movement = 'Baroque'").unwrap();
            b.iter(|| ops::filter(black_box(&metadata), &predicate).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("aggregate_group_by", size),
            &size,
            |b, _| {
                b.iter(|| {
                    sql::run_sql(
                        black_box(&catalog),
                        "SELECT movement, COUNT(*) AS n FROM paintings_metadata GROUP BY movement",
                    )
                    .unwrap()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("visual_qa", size), &size, |b, _| {
            let model = Perception {
                backend: &VisualQaModel::new(),
                batch: BatchConfig::default(),
                cache: None,
            };
            b.iter(|| {
                apply_visual_qa(
                    black_box(&images),
                    &store,
                    model,
                    "image",
                    "num_swords",
                    "How many swords are depicted?",
                    caesura_engine::DataType::Int,
                )
                .1
                .unwrap()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("python_udf_century", size),
            &size,
            |b, _| {
                let codegen = TransformCodegen::new();
                b.iter(|| {
                    apply_python_udf(
                        black_box(&metadata),
                        &codegen,
                        "Extract the century from the dates in the 'inception' column",
                        "century",
                        None,
                    )
                    .1
                    .unwrap()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("sort", size), &size, |b, _| {
            b.iter(|| {
                ops::sort(
                    black_box(&metadata),
                    &[ops::SortKey::asc(Expr::col("title"))],
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_operators,
    bench_columnar_scale,
    bench_encoded
);
criterion_main!(benches);
