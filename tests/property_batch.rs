//! Property tests of the batched, deduplicated perception-call layer
//! (`caesura_modal::batch`): the gather → dedup → batch → scatter pipeline
//! must be **byte-identical** to the row-at-a-time reference — answers,
//! coercions, NULL placeholders, validity bitmaps, and the first error in
//! row order — for every batch size and thread count, and duplicate rows
//! must never add model calls.
//!
//! The reference implementations below are the pre-batching row-at-a-time
//! operator loops (one model call per row via `with_new_column` /
//! `filter_rows`), re-stated locally so the comparison target stays fixed
//! while the production path evolves.

use caesura::engine::{DataType, EngineError, Schema, Table, TableBuilder, Value};
use caesura::llm::{CountingLlm, LlmClient, LlmResult, PerceptionLlm};
use caesura::modal::operators::{
    apply_image_select, apply_text_qa, apply_visual_qa, template_placeholders, Perception,
};
use caesura::modal::{
    BatchConfig, ImageObject, ImageSelectModel, ImageStore, ModalError, ModalResult, TextQaModel,
    VisualQaModel,
};
use rand::{Rng, SeedableRng, StdRng};

const BATCH_SIZES: &[usize] = &[1, 7, 64];
const THREADS: &[usize] = &[1, 4];

// ---------------------------------------------------------------------------
// Row-at-a-time reference implementations (the pre-batching operator loops).
// ---------------------------------------------------------------------------

/// The operator layer's answer coercion (kept in sync with
/// `operators::coerce`; unparseable answers become NULL).
fn coerce_ref(value: Value, target: DataType) -> Value {
    match (target, &value) {
        (DataType::Int, Value::Str(s)) => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .unwrap_or(Value::Null),
        (DataType::Int, Value::Float(f))
            if f.fract() == 0.0
                && *f >= -9_223_372_036_854_775_808.0
                && *f < 9_223_372_036_854_775_808.0 =>
        {
            Value::Int(*f as i64)
        }
        (DataType::Int, Value::Float(_)) => Value::Null,
        (DataType::Float, Value::Int(i)) => Value::Float(*i as f64),
        (DataType::Float, Value::Str(s)) => s
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .unwrap_or(Value::Null),
        (DataType::Bool, Value::Str(s)) => {
            match s.trim().trim_end_matches('.').to_lowercase().as_str() {
                "yes" | "true" => Value::Bool(true),
                "no" | "false" => Value::Bool(false),
                _ => Value::Null,
            }
        }
        (DataType::Str, Value::Int(i)) => Value::str(i.to_string()),
        (DataType::Str, Value::Float(f)) => Value::str(f.to_string()),
        (DataType::Str, Value::Bool(b)) => Value::str(if *b { "yes" } else { "no" }),
        _ => {
            if value.is_null() || value.data_type() == target {
                value
            } else {
                Value::Null
            }
        }
    }
}

fn reference_text_qa(
    table: &Table,
    model: &TextQaModel,
    text_column: &str,
    new_column: &str,
    template: &str,
    result_type: DataType,
) -> ModalResult<Table> {
    let schema = table.schema().clone();
    let idx = schema.resolve(text_column).map_err(ModalError::Engine)?;
    table
        .with_new_column(new_column, result_type, |row_idx, row| {
            let document = match row.get(idx) {
                Value::Text(text) => text.to_string(),
                Value::Null => return Ok(Value::Null),
                other => {
                    return Err(EngineError::execution(format!(
                        "row {row_idx} of column '{text_column}' holds the {} value {} where a \
                         TEXT document was expected",
                        other.data_type().prompt_name(),
                        other.preview(40),
                    )))
                }
            };
            let mut question = template.to_string();
            for placeholder in template_placeholders(template) {
                let col = schema.resolve(&placeholder)?;
                question = question.replace(&format!("<{placeholder}>"), &row.get(col).to_string());
            }
            let answer = model
                .answer(&document, &question)
                .map_err(|e| EngineError::execution(e.to_string()))?;
            Ok(coerce_ref(answer, result_type))
        })
        .map_err(ModalError::Engine)
}

fn reference_visual_qa(
    table: &Table,
    store: &ImageStore,
    model: &VisualQaModel,
    image_column: &str,
    new_column: &str,
    question: &str,
    result_type: DataType,
) -> ModalResult<Table> {
    let schema = table.schema().clone();
    let idx = schema.resolve(image_column).map_err(ModalError::Engine)?;
    table
        .with_new_column(new_column, result_type, |row_idx, row| {
            let key = match row.get(idx) {
                Value::Image(key) => key.to_string(),
                Value::Null => return Ok(Value::Null),
                other => {
                    return Err(EngineError::execution(format!(
                        "row {row_idx} of column '{image_column}' holds the {} value {} where an \
                         IMAGE reference was expected",
                        other.data_type().prompt_name(),
                        other.preview(40),
                    )))
                }
            };
            let image = store.get(&key).ok_or_else(|| {
                EngineError::execution(format!("image '{key}' was not found in the image store"))
            })?;
            let answer = model
                .answer(image, question)
                .map_err(|e| EngineError::execution(e.to_string()))?;
            Ok(coerce_ref(answer, result_type))
        })
        .map_err(ModalError::Engine)
}

fn reference_image_select(
    table: &Table,
    store: &ImageStore,
    model: &ImageSelectModel,
    image_column: &str,
    description: &str,
) -> ModalResult<Table> {
    let schema = table.schema().clone();
    let idx = schema.resolve(image_column).map_err(ModalError::Engine)?;
    table
        .filter_rows(|row| {
            let key = match row.get(idx) {
                Value::Image(key) => key.to_string(),
                Value::Null => return Ok(false),
                other => {
                    return Err(EngineError::execution(format!(
                        "row {} of column '{image_column}' holds the {} value {} where an IMAGE \
                         reference was expected",
                        row.index(),
                        other.data_type().prompt_name(),
                        other.preview(40),
                    )))
                }
            };
            let image = store.get(&key).ok_or_else(|| {
                EngineError::execution(format!("image '{key}' was not found in the image store"))
            })?;
            Ok(model.matches(image, description))
        })
        .map_err(ModalError::Engine)
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

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

/// Run `batched` under every batch-size × thread configuration and compare
/// against `reference` (tables byte-identical, errors stringly identical).
fn assert_equivalent(
    reference: ModalResult<Table>,
    label: &str,
    batched: impl Fn(&BatchConfig) -> ModalResult<Table>,
) {
    for &batch_size in BATCH_SIZES {
        for &threads in THREADS {
            let context = format!("{label} [batch={batch_size}, threads={threads}]");
            let actual = batched(&BatchConfig {
                batch_size,
                threads,
            });
            match (&reference, &actual) {
                (Ok(expected), Ok(actual)) => {
                    assert_tables_byte_identical(expected, actual, &context)
                }
                (Err(expected), Err(actual)) => assert_eq!(
                    expected.to_string(),
                    actual.to_string(),
                    "error differs: {context}"
                ),
                (expected, actual) => panic!(
                    "outcome kind differs: {context}\n reference: {expected:?}\n batched: {actual:?}"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Duplicate-heavy synthetic data
// ---------------------------------------------------------------------------

const TEAMS: &[&str] = &["Heat", "Spurs", "Bulls", "Lakers"];

fn report(home: &str, away: &str, home_points: i64, away_points: i64) -> String {
    format!(
        "The {home} defeated the {away} {home_points}-{away_points}. The {home} scored \
         {home_points} points while the {away} scored {away_points} points."
    )
}

/// A Rotowire-style joined table: every report appears once per team, with a
/// sprinkling of NULL documents and NULL names.
fn reports_table(rng: &mut StdRng, rows: usize, with_nulls: bool) -> Table {
    let schema = Schema::from_pairs(&[("name", DataType::Str), ("report", DataType::Text)]);
    let mut builder = TableBuilder::new("joined_reports", schema);
    let mut games = Vec::new();
    for _ in 0..4 {
        let home = TEAMS[rng.gen_range(0..TEAMS.len())];
        let mut away = TEAMS[rng.gen_range(0..TEAMS.len())];
        while away == home {
            away = TEAMS[rng.gen_range(0..TEAMS.len())];
        }
        games.push(report(
            home,
            away,
            rng.gen_range(90..130),
            rng.gen_range(80..125),
        ));
    }
    for _ in 0..rows {
        let name = if with_nulls && rng.gen_range(0..10usize) == 0 {
            Value::Null
        } else {
            Value::str(TEAMS[rng.gen_range(0..TEAMS.len())])
        };
        let doc = if with_nulls && rng.gen_range(0..7usize) == 0 {
            Value::Null
        } else {
            Value::text(games[rng.gen_range(0..games.len())].clone())
        };
        builder.push_row(vec![name, doc]).unwrap();
    }
    builder.build()
}

/// A small gallery with heavy key repetition in the table.
fn gallery(rng: &mut StdRng, rows: usize, with_nulls: bool) -> (Table, ImageStore) {
    let mut store = ImageStore::new();
    let entities = ["sword", "madonna", "child", "horse", "iris"];
    for i in 0..6 {
        let mut image = ImageObject::new(format!("img/{i}.png"));
        for entity in entities {
            if rng.gen_range(0..2usize) == 1 {
                image = image.with_object(entity, rng.gen_range(1..4) as u32);
            }
        }
        store
            .insert(image.with_attribute("style", ["baroque", "gothic"][rng.gen_range(0..2usize)]));
    }
    let schema = Schema::from_pairs(&[("title", DataType::Str), ("image", DataType::Image)]);
    let mut builder = TableBuilder::new("gallery", schema);
    for r in 0..rows {
        let image = if with_nulls && rng.gen_range(0..8usize) == 0 {
            Value::Null
        } else {
            Value::image(format!("img/{}.png", rng.gen_range(0..6usize)))
        };
        builder
            .push_row(vec![Value::str(format!("painting {r}")), image])
            .unwrap();
    }
    (builder.build(), store)
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

#[test]
fn text_qa_batched_is_byte_identical_to_the_reference() {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    for case in 0..12 {
        let rows = rng.gen_range(1..40usize);
        let table = reports_table(&mut rng, rows, true);
        for (template, dtype) in [
            ("How many points did <name> score?", DataType::Int),
            ("Did <name> win?", DataType::Str),
            ("Did <name> lose?", DataType::Str),
            ("Did <name> win?", DataType::Bool),
        ] {
            let model = TextQaModel::new();
            let reference = reference_text_qa(&table, &model, "report", "answer", template, dtype);
            assert_equivalent(
                reference,
                &format!("text_qa case {case} template '{template}'"),
                |batch| {
                    apply_text_qa(
                        &table,
                        Perception {
                            backend: &model,
                            batch: *batch,
                            cache: None,
                        },
                        "report",
                        "answer",
                        template,
                        dtype,
                    )
                    .1
                },
            );
        }
    }
}

#[test]
fn visual_qa_batched_is_byte_identical_to_the_reference() {
    let mut rng = StdRng::seed_from_u64(0x715);
    for case in 0..12 {
        let rows = rng.gen_range(1..50usize);
        let (table, store) = gallery(&mut rng, rows, true);
        for (question, dtype) in [
            ("How many swords are depicted?", DataType::Int),
            ("Is Madonna and Child depicted?", DataType::Str),
            ("Are swords depicted?", DataType::Str),
            ("Is a horse depicted?", DataType::Bool),
        ] {
            let model = VisualQaModel::new();
            let reference =
                reference_visual_qa(&table, &store, &model, "image", "answer", question, dtype);
            assert_equivalent(
                reference,
                &format!("visual_qa case {case} question '{question}'"),
                |batch| {
                    apply_visual_qa(
                        &table,
                        &store,
                        Perception {
                            backend: &model,
                            batch: *batch,
                            cache: None,
                        },
                        "image",
                        "answer",
                        question,
                        dtype,
                    )
                    .1
                },
            );
        }
    }
}

#[test]
fn image_select_batched_is_byte_identical_to_the_reference() {
    let mut rng = StdRng::seed_from_u64(0x5E1EC7);
    for case in 0..12 {
        let rows = rng.gen_range(1..50usize);
        let (table, store) = gallery(&mut rng, rows, true);
        for description in [
            "paintings depicting a sword",
            "paintings depicting Madonna and Child",
            "baroque paintings",
            "all the paintings",
        ] {
            let model = ImageSelectModel::new();
            let reference = reference_image_select(&table, &store, &model, "image", description);
            assert_equivalent(
                reference,
                &format!("image_select case {case} '{description}'"),
                |batch| {
                    apply_image_select(
                        &table,
                        &store,
                        Perception {
                            backend: &model,
                            batch: *batch,
                            cache: None,
                        },
                        "image",
                        description,
                    )
                    .1
                },
            );
        }
    }
}

#[test]
fn unanswerable_questions_propagate_the_same_error() {
    let mut rng = StdRng::seed_from_u64(0xE4404);
    let table = reports_table(&mut rng, 12, false);
    let model = TextQaModel::new();
    let template = "Summarize the report for <name>";
    let reference = reference_text_qa(&table, &model, "report", "x", template, DataType::Str);
    assert!(reference.is_err());
    assert_equivalent(reference, "unanswerable text question", |batch| {
        apply_text_qa(
            &table,
            Perception {
                backend: &model,
                batch: *batch,
                cache: None,
            },
            "report",
            "x",
            template,
            DataType::Str,
        )
        .1
    });
}

#[test]
fn missing_images_propagate_the_same_error() {
    let mut rng = StdRng::seed_from_u64(0x0D0);
    let (table, store) = gallery(&mut rng, 20, true);
    // Re-key half the store so some references dangle.
    let mut broken = ImageStore::new();
    for i in 0..3 {
        if let Some(image) = store.get(&format!("img/{i}.png")) {
            broken.insert(image.clone());
        }
    }
    let model = VisualQaModel::new();
    let question = "How many swords are depicted?";
    let reference = reference_visual_qa(
        &table,
        &broken,
        &model,
        "image",
        "n",
        question,
        DataType::Int,
    );
    assert_equivalent(reference, "missing image", |batch| {
        apply_visual_qa(
            &table,
            &broken,
            Perception {
                backend: &model,
                batch: *batch,
                cache: None,
            },
            "image",
            "n",
            question,
            DataType::Int,
        )
        .1
    });

    let select_model = ImageSelectModel::new();
    let reference = reference_image_select(&table, &broken, &select_model, "image", "swords");
    assert_equivalent(reference, "missing image (select)", |batch| {
        apply_image_select(
            &table,
            &broken,
            Perception {
                backend: &select_model,
                batch: *batch,
                cache: None,
            },
            "image",
            "swords",
        )
        .1
    });
}

#[test]
fn mistyped_cells_propagate_the_same_error() {
    // A TEXT column holding a stray Int (dynamic-typing escape hatch) errors
    // with the offending row index on both paths.
    let schema = Schema::from_pairs(&[("name", DataType::Str), ("report", DataType::Text)]);
    let mut builder = TableBuilder::new("t", schema);
    builder
        .push_row(vec![
            Value::str("Heat"),
            Value::text(report("Spurs", "Heat", 110, 102)),
        ])
        .unwrap();
    builder
        .push_row(vec![Value::str("Spurs"), Value::Int(3)])
        .unwrap();
    builder
        .push_row(vec![
            Value::str("Bulls"),
            Value::text(report("Bulls", "Lakers", 99, 95)),
        ])
        .unwrap();
    let table = builder.build();
    let model = TextQaModel::new();
    let reference = reference_text_qa(
        &table,
        &model,
        "report",
        "won",
        "Did <name> win?",
        DataType::Str,
    );
    let message = reference.as_ref().unwrap_err().to_string();
    assert!(message.contains("row 1"), "got: {message}");
    assert_equivalent(reference, "mistyped text cell", |batch| {
        apply_text_qa(
            &table,
            Perception {
                backend: &model,
                batch: *batch,
                cache: None,
            },
            "report",
            "won",
            "Did <name> win?",
            DataType::Str,
        )
        .1
    });
}

// ---------------------------------------------------------------------------
// Dedup: duplicate rows must not add model calls (CountingLlm evidence)
// ---------------------------------------------------------------------------

/// A trivial deterministic LLM answering every perception prompt with "42".
struct ConstLlm;

impl LlmClient for ConstLlm {
    fn complete(&self, _conversation: &caesura::llm::Conversation) -> LlmResult<String> {
        Ok("42".to_string())
    }
    fn name(&self) -> &str {
        "const"
    }
}

#[test]
fn duplicate_rows_do_not_add_llm_calls() {
    // 36 rows over 4 teams × 3 reports: at most 12 unique (doc, question)
    // pairs, far fewer calls than rows.
    let mut rng = StdRng::seed_from_u64(0xDED0);
    let table = reports_table(&mut rng, 36, false);
    let backend = PerceptionLlm::new(CountingLlm::new(ConstLlm));
    let (stats, out) = apply_text_qa(
        &table,
        Perception {
            backend: &backend,
            batch: BatchConfig::new(8),
            cache: None,
        },
        "report",
        "points",
        "How many points did <name> score?",
        DataType::Int,
    );
    let out = out.unwrap();
    let usage = backend.inner().usage();
    assert_eq!(usage.calls, stats.unique_requests());
    assert!(
        usage.calls < table.num_rows(),
        "dedup must issue strictly fewer calls ({}) than rows ({})",
        usage.calls,
        table.num_rows()
    );
    assert_eq!(stats.rows, table.num_rows());
    assert_eq!(stats.saved_calls, table.num_rows() - usage.calls);
    assert_eq!(usage.batches, stats.unique_requests().div_ceil(8));
    // Every answer came back and was coerced into the declared Int type.
    for row in 0..out.num_rows() {
        assert_eq!(out.value(row, "points").unwrap(), Value::Int(42));
    }

    // Re-running with batch size 1 issues the same number of *calls* (dedup
    // is batch-size independent), one batch each.
    let backend = PerceptionLlm::new(CountingLlm::new(ConstLlm));
    let (stats1, out1) = apply_text_qa(
        &table,
        Perception {
            backend: &backend,
            batch: BatchConfig::new(1),
            cache: None,
        },
        "report",
        "points",
        "How many points did <name> score?",
        DataType::Int,
    );
    out1.unwrap();
    assert_eq!(stats1.unique_requests(), stats.unique_requests());
    assert_eq!(backend.inner().usage().calls, stats.unique_requests());
    assert_eq!(backend.inner().usage().batches, stats.unique_requests());

    // The same holds for images: 40 rows over at most 6 distinct images
    // reach the model once per image.
    let (images, store) = gallery(&mut rng, 40, false);
    let backend = PerceptionLlm::new(CountingLlm::new(ConstLlm));
    let (visual, out) = apply_visual_qa(
        &images,
        &store,
        Perception {
            backend: &backend,
            batch: BatchConfig::new(8),
            cache: None,
        },
        "image",
        "num_swords",
        "How many swords are depicted?",
        DataType::Int,
    );
    out.unwrap();
    assert_eq!(backend.inner().usage().calls, visual.unique_requests());
    assert!(visual.unique_requests() < images.num_rows());
}

#[test]
fn dedup_counts_with_the_simulated_models_match_distinct_inputs() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let (table, store) = gallery(&mut rng, 40, false);
    let model = VisualQaModel::new();
    let (stats, out) = apply_visual_qa(
        &table,
        &store,
        Perception {
            backend: &model,
            batch: BatchConfig::new(16),
            cache: None,
        },
        "image",
        "n",
        "How many swords are depicted?",
        DataType::Int,
    );
    out.unwrap();
    // 6 distinct images at most, regardless of 40 rows.
    assert!(stats.unique_requests() <= 6);
    assert_eq!(stats.rows, 40);
    assert_eq!(
        stats.saved_calls,
        stats.rows - stats.null_rows - stats.unique_requests()
    );
    assert!(stats.saved_calls > 0, "expected duplicate-heavy input");
}
