//! Property tests of the session-scoped perception answer cache
//! (`caesura_modal::cache`): execution through a cache — of any capacity,
//! including tiny ones that force eviction — must be **byte-identical** to
//! the uncached path for every operator, across thread counts and batch
//! sizes, on cold *and* warm caches, with NULL inputs and
//! error propagation. Error rows must never be cached.
//!
//! The reference for every comparison is the uncached dispatch
//! (`cache = None`), which `tests/property_batch.rs` already proves
//! byte-identical to the pre-batching row-at-a-time loops — so transitively
//! the cached path reproduces the original sequential semantics.

use caesura::engine::{DataType, Schema, Table, TableBuilder, Value};
use caesura::modal::operators::{apply_image_select, apply_text_qa, apply_visual_qa, Perception};
use caesura::modal::{
    BatchConfig, ImageObject, ImageSelectModel, ImageStore, ModalResult, PerceptionCache,
    TextQaModel, VisualQaModel,
};
use rand::{Rng, SeedableRng, StdRng};

const BATCH_SIZES: &[usize] = &[1, 64];
const THREADS: &[usize] = &[1, 4];

/// The cache capacities under test: `None` is the uncached reference
/// configuration, `2` forces constant eviction, `4096` never evicts.
const CACHE_CAPACITIES: &[Option<usize>] = &[None, Some(2), Some(4096)];

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn assert_tables_byte_identical(expected: &Table, actual: &Table, context: &str) {
    assert_eq!(expected.name(), actual.name(), "table name: {context}");
    assert_eq!(expected.schema(), actual.schema(), "schema: {context}");
    assert_eq!(expected.num_rows(), actual.num_rows(), "rows: {context}");
    for (i, (a, b)) in expected.columns().iter().zip(actual.columns()).enumerate() {
        assert_eq!(
            a.as_ref(),
            b.as_ref(),
            "column {i} ('{}') differs byte-for-byte: {context}",
            expected.schema().names()[i]
        );
    }
}

fn assert_same_outcome(reference: &ModalResult<Table>, actual: &ModalResult<Table>, context: &str) {
    match (reference, actual) {
        (Ok(expected), Ok(actual)) => assert_tables_byte_identical(expected, actual, context),
        (Err(expected), Err(actual)) => assert_eq!(
            expected.to_string(),
            actual.to_string(),
            "error differs: {context}"
        ),
        (expected, actual) => {
            panic!("outcome kind differs: {context}\n reference: {expected:?}\n cached: {actual:?}")
        }
    }
}

/// Run `operator` once uncached as the reference, then — for every cache
/// capacity × thread count × batch size — twice through one shared cache
/// (cold, then warm), asserting every run is byte-identical to the
/// reference. The warm run must be served without new backend dispatches
/// when the cache is large enough to still hold every answer.
fn assert_cache_transparent(
    label: &str,
    operator: impl Fn(&BatchConfig, Option<&PerceptionCache>) -> ModalResult<Table>,
) {
    let reference = operator(&BatchConfig::new(8), None);
    for &capacity in CACHE_CAPACITIES {
        for &threads in THREADS {
            for &batch_size in BATCH_SIZES {
                let batch = BatchConfig {
                    batch_size,
                    threads,
                };
                let cache = capacity.map(PerceptionCache::with_capacity);
                let context =
                    format!("{label} [cache={capacity:?}, threads={threads}, batch={batch_size}]");
                let cold = operator(&batch, cache.as_ref());
                assert_same_outcome(&reference, &cold, &format!("{context} (cold)"));
                let warm = operator(&batch, cache.as_ref());
                assert_same_outcome(&reference, &warm, &format!("{context} (warm)"));
                if let Some(cache) = &cache {
                    assert!(
                        cache.len() <= cache.capacity(),
                        "capacity bound violated: {context}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Duplicate-heavy synthetic data (Rotowire-style repetition)
// ---------------------------------------------------------------------------

const TEAMS: &[&str] = &["Heat", "Spurs", "Bulls", "Lakers"];

fn report(home: &str, away: &str, home_points: i64, away_points: i64) -> String {
    format!(
        "The {home} defeated the {away} {home_points}-{away_points}. The {home} scored \
         {home_points} points while the {away} scored {away_points} points."
    )
}

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
fn text_qa_cached_is_byte_identical_to_uncached() {
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    for case in 0..6 {
        let rows = rng.gen_range(1..40usize);
        let table = reports_table(&mut rng, rows, true);
        for (template, dtype) in [
            ("How many points did <name> score?", DataType::Int),
            ("Did <name> lose?", DataType::Str),
            ("Did <name> win?", DataType::Bool),
        ] {
            let model = TextQaModel::new();
            assert_cache_transparent(
                &format!("text_qa case {case} template '{template}'"),
                |batch, cache| {
                    apply_text_qa(
                        &table,
                        Perception {
                            backend: &model,
                            batch: *batch,
                            cache,
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
fn visual_qa_cached_is_byte_identical_to_uncached() {
    let mut rng = StdRng::seed_from_u64(0x71C5);
    for case in 0..6 {
        let rows = rng.gen_range(1..50usize);
        let (table, store) = gallery(&mut rng, rows, true);
        for (question, dtype) in [
            ("How many swords are depicted?", DataType::Int),
            ("Are swords depicted?", DataType::Str),
            ("Is a horse depicted?", DataType::Bool),
        ] {
            let model = VisualQaModel::new();
            assert_cache_transparent(
                &format!("visual_qa case {case} question '{question}'"),
                |batch, cache| {
                    apply_visual_qa(
                        &table,
                        &store,
                        Perception {
                            backend: &model,
                            batch: *batch,
                            cache,
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
fn image_select_cached_is_byte_identical_to_uncached() {
    let mut rng = StdRng::seed_from_u64(0x5E1EC7);
    for case in 0..6 {
        let rows = rng.gen_range(1..50usize);
        let (table, store) = gallery(&mut rng, rows, true);
        for description in [
            "paintings depicting a sword",
            "baroque paintings",
            "all the paintings",
        ] {
            let model = ImageSelectModel::new();
            assert_cache_transparent(
                &format!("image_select case {case} '{description}'"),
                |batch, cache| {
                    apply_image_select(
                        &table,
                        &store,
                        Perception {
                            backend: &model,
                            batch: *batch,
                            cache,
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
fn errors_propagate_identically_and_are_never_cached() {
    // The question is unanswerable for every row: the cached path must
    // return the identical error on every (cold and warm) run, and the
    // cache must stay empty — errors are never stored.
    let mut rng = StdRng::seed_from_u64(0xE4404);
    let table = reports_table(&mut rng, 12, false);
    let model = TextQaModel::new();
    let template = "Summarize the report for <name>";
    assert_cache_transparent("unanswerable text question", |batch, cache| {
        let result = apply_text_qa(
            &table,
            Perception {
                backend: &model,
                batch: *batch,
                cache,
            },
            "report",
            "x",
            template,
            DataType::Str,
        )
        .1;
        if let Some(cache) = cache {
            assert!(cache.is_empty(), "failed requests must never be cached");
        }
        result
    });

    // Dangling image references error identically through the cache too.
    let mut rng = StdRng::seed_from_u64(0x0D0);
    let (table, store) = gallery(&mut rng, 20, true);
    let mut broken = ImageStore::new();
    for i in 0..3 {
        if let Some(image) = store.get(&format!("img/{i}.png")) {
            broken.insert(image.clone());
        }
    }
    let model = VisualQaModel::new();
    assert_cache_transparent("missing image", |batch, cache| {
        apply_visual_qa(
            &table,
            &broken,
            Perception {
                backend: &model,
                batch: *batch,
                cache,
            },
            "image",
            "n",
            "How many swords are depicted?",
            DataType::Int,
        )
        .1
    });
}

#[test]
fn tiny_caches_evict_but_large_caches_serve_warm_runs_without_dispatch() {
    let mut rng = StdRng::seed_from_u64(0xE51C7);
    let table = reports_table(&mut rng, 32, false);
    let model = TextQaModel::new();
    let template = "How many points did <name> score?";

    // Large cache: the warm run dispatches nothing.
    let cache = PerceptionCache::with_capacity(4096);
    let (cold, out) = apply_text_qa(
        &table,
        Perception {
            backend: &model,
            batch: BatchConfig::new(8),
            cache: Some(&cache),
        },
        "report",
        "points",
        template,
        DataType::Int,
    );
    out.unwrap();
    assert!(cold.cache_misses > 0);
    assert_eq!(cold.cache_evictions, 0);
    let (warm, out) = apply_text_qa(
        &table,
        Perception {
            backend: &model,
            batch: BatchConfig::new(8),
            cache: Some(&cache),
        },
        "report",
        "points",
        template,
        DataType::Int,
    );
    out.unwrap();
    assert_eq!(warm.cache_hits, warm.unique_requests);
    assert_eq!(warm.dispatched_requests(), 0);
    assert_eq!(warm.batches, 0);

    // Tiny cache under sequential dispatch: evictions must actually happen
    // (more unique requests than capacity), and the warm run re-dispatches
    // at least the evicted share.
    let tiny = PerceptionCache::with_capacity(2);
    let sequential = BatchConfig {
        batch_size: 8,
        threads: 1,
    };
    let (cold, out) = apply_text_qa(
        &table,
        Perception {
            backend: &model,
            batch: sequential,
            cache: Some(&tiny),
        },
        "report",
        "points",
        template,
        DataType::Int,
    );
    out.unwrap();
    assert!(cold.unique_requests > 2, "workload must overflow the cache");
    assert!(cold.cache_evictions > 0, "a tiny cache must evict");
    assert!(tiny.len() <= 2);
    let (warm, out) = apply_text_qa(
        &table,
        Perception {
            backend: &model,
            batch: sequential,
            cache: Some(&tiny),
        },
        "report",
        "points",
        template,
        DataType::Int,
    );
    out.unwrap();
    assert!(
        warm.cache_misses >= warm.unique_requests - 2,
        "evicted answers must be re-dispatched"
    );
}
