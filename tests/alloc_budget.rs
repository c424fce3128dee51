//! Deterministic allocation gate for the per-query and per-row paths that
//! must not copy lake data or allocate per row: counts compared exactly (or
//! against a stated budget), so a regression fails here whatever the
//! machine's speed.
//!
//! The counting allocator keeps one counter **per thread**, and every
//! measured section runs on the test's own thread (perception dispatch only
//! fans out for cache misses, and the measured steps have none), so the
//! counts do not depend on which other tests run beside this one. CI still
//! runs the binary with `--test-threads=1`.

use caesura::core::Executor;
use caesura::data::DataLake;
use caesura::engine::{ops, BinaryOp, Expr, ScalarFunc};
use caesura::modal::operators::{apply_python_udf, apply_text_qa, apply_visual_qa, Perception};
use caesura::modal::{
    BatchConfig, ImageObject, ImageStore, ModalResult, PerceptionBackend, PerceptionCache,
    PerceptionCalls, PerceptionRequest, TransformCodegen,
};
use caesura::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Blocks this thread has allocated (`realloc` and `alloc_zeroed` reach
    /// `alloc` through their default implementations).
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `Cell<u64>` in const-initialised
// thread-local storage without a destructor, so touching it neither
// allocates nor observes a destroyed value.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get() + 1));
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Blocks allocated by this thread while `section` ran, and its result.
fn blocks_allocated<T>(section: impl FnOnce() -> T) -> (u64, T) {
    let before = BLOCKS.with(Cell::get);
    let result = section();
    (BLOCKS.with(Cell::get) - before, result)
}

/// Answers every question with its length: deterministic, allocation-free.
struct QuestionLength;

impl PerceptionBackend for QuestionLength {
    fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
        let answer = |request: &PerceptionRequest| Ok(Value::Int(request.question.len() as i64));
        requests.iter().map(answer).collect()
    }
}

/// A lake of one `paintings` table over `images` annotated images.
fn gallery_lake(images: usize) -> DataLake {
    let schema = Schema::from_pairs(&[("title", DataType::Str), ("image", DataType::Image)]);
    let mut paintings = TableBuilder::new("paintings", schema);
    let mut lake = DataLake::new("gallery");
    for i in 0..images {
        let key = format!("img/{i}.png");
        let row = vec![Value::str(format!("Painting {i}")), Value::image(&key)];
        paintings.push_row(row).unwrap();
        let image = ImageObject::new(key)
            .with_object("sword", i as u32 % 5)
            .with_object("horse", 1)
            .with_attribute("style", "baroque");
        lake.images_mut().insert(image);
    }
    lake.add_table(paintings.build(), "Paintings and their images");
    lake
}

#[test]
fn building_an_executor_costs_the_same_whatever_the_lake_holds() {
    let build_and_drop = |lake: &DataLake| {
        let (blocks, ()) = blocks_allocated(|| {
            drop(Executor::new(lake.catalog().clone(), lake.images().clone()));
        });
        blocks
    };
    let (small, large) = (gallery_lake(20), gallery_lake(2_000));
    // The first executor of a process reads the environment's defaults.
    build_and_drop(&small);
    assert_eq!(build_and_drop(&small), build_and_drop(&large));

    // The shares underneath: neither a store nor a whole lake copies an image.
    let (blocks, _clone) = blocks_allocated(|| large.images().clone());
    assert_eq!(
        blocks, 0,
        "cloning an image store is a reference-count bump"
    );
    let clone_lake = |lake: &DataLake| blocks_allocated(|| lake.clone()).0;
    assert_eq!(clone_lake(&small), clone_lake(&large));
}

/// `metadata ⋈ images` on a unique `img_path`, the images in `order`.
fn fk_pair(rows: usize, order: impl Iterator<Item = usize>) -> (Table, Table) {
    let schema = Schema::from_pairs(&[("title", DataType::Str), ("img_path", DataType::Str)]);
    let mut metadata = TableBuilder::new("paintings_metadata", schema);
    for i in 0..rows {
        let row = [format!("Painting {i}"), format!("img/{i}.png")];
        metadata.push_values(row).unwrap();
    }
    let schema = Schema::from_pairs(&[("img_path", DataType::Str), ("image", DataType::Image)]);
    let mut images = TableBuilder::new("painting_images", schema);
    for i in order {
        let key = format!("img/{i}.png");
        let row = vec![Value::str(&key), Value::image(&key)];
        images.push_row(row).unwrap();
    }
    (metadata.build(), images.build())
}

#[test]
fn a_foreign_key_join_allocates_the_same_whatever_the_row_count() {
    let join_blocks = |(metadata, images): &(Table, Table)| {
        let (blocks, joined) =
            blocks_allocated(|| ops::hash_join(metadata, images, "img_path", "img_path").unwrap());
        assert_eq!(joined.num_rows(), metadata.num_rows());
        blocks
    };
    // Both sides in key order: one chain array, one hash table, two index
    // vectors, the joined schema — and every column shared.
    let (small, large) = (fk_pair(100, 0..100), fk_pair(20_000, 0..20_000));
    // Warm up once, so no lazily built process state is charged to the
    // first measured join.
    join_blocks(&small);
    assert_eq!(join_blocks(&small), join_blocks(&large));

    // Images in reverse order: the right side is gathered, one data vector
    // and one bitmap per column, still nothing per row.
    let (small, large) = (
        fk_pair(100, (0..100).rev()),
        fk_pair(20_000, (0..20_000).rev()),
    );
    assert_eq!(join_blocks(&small), join_blocks(&large));
}

#[test]
fn a_filter_over_a_plain_string_column_allocates_the_same_whatever_the_row_count() {
    // Titles are unique, so the column stays a plain string buffer.
    let (small, large) = (fk_pair(100, 0..100), fk_pair(20_000, 0..20_000));
    let predicates = [
        Expr::binary(Expr::col("title"), BinaryOp::Lt, Expr::lit("Painting 5")),
        // LIKE lowercases each title into one buffer that every row reuses.
        Expr::binary(Expr::col("title"), BinaryOp::Like, Expr::lit("%1%")),
    ];
    for predicate in &predicates {
        let filter_blocks = |(metadata, _): &(Table, Table)| {
            let (blocks, kept) = blocks_allocated(|| ops::filter(metadata, predicate).unwrap());
            assert!(0 < kept.num_rows() && kept.num_rows() < metadata.num_rows());
            blocks
        };
        filter_blocks(&small);
        // The compare kernel's two vectors, the selection vector (counted,
        // then allocated once), and per column one gather: offsets and bytes
        // sized once, then the bitmap. No string is copied into a block of
        // its own.
        assert_eq!(
            filter_blocks(&small),
            filter_blocks(&large),
            "{predicate:?}"
        );
    }
}

#[test]
fn a_sort_on_a_plain_string_key_allocates_the_same_whatever_the_row_count() {
    let keys = [ops::SortKey::desc(Expr::col("title"))];
    let sort_blocks = |(metadata, _): &(Table, Table)| {
        let (blocks, sorted) = blocks_allocated(|| ops::sort(metadata, &keys).unwrap());
        assert_eq!(sorted.num_rows(), metadata.num_rows());
        blocks
    };
    let (small, large) = (fk_pair(100, 0..100), fk_pair(20_000, 0..20_000));
    sort_blocks(&small);
    // One permutation, sorted in place by comparing the key's strings where
    // they lie, then one gather per column: no key is materialized per row.
    assert_eq!(sort_blocks(&small), sort_blocks(&large));
}

/// Blocks a perception step may allocate whatever its row count: the output
/// column and schema, the collector's vectors and dedup index (each sized to
/// the row count once), TextQA's per-step document-hash map, the
/// resolved-answer vector. Measured: VisualQA 19 blocks at 100 rows and 21 at
/// 1,000; TextQA rows + 23 and rows + 25. The budget is that maximum, 25,
/// plus a margin of 7; a collector that grew by doubling again (34 and 46
/// blocks for VisualQA) fails it.
const STEP_BLOCKS: u64 = 32;

/// Run `step` twice over `rows` rows through one cache: cold, then warm with
/// the allocations counted. Asserts the warm run was answered from memory.
fn warm_step_blocks(
    rows: usize,
    step: impl Fn(&PerceptionCache) -> (PerceptionCalls, ModalResult<Table>),
) -> u64 {
    let cache = PerceptionCache::with_capacity(4 * rows);
    let (cold, first) = step(&cache);
    let (blocks, (warm, second)) = blocks_allocated(|| step(&cache));
    assert_eq!((cold.cache_misses, cold.calls), (rows, rows));
    assert_eq!((warm.cache_hits, warm.calls), (rows, 0));
    assert_eq!(first.unwrap(), second.unwrap());
    blocks
}

#[test]
fn a_cached_visual_qa_step_allocates_no_block_per_row_outside_the_lru() {
    let blocks = |rows: usize| {
        let lake = gallery_lake(rows);
        let table = lake.catalog().table("paintings").unwrap();
        let images: &ImageStore = lake.images();
        warm_step_blocks(rows, |cache| {
            apply_visual_qa(
                table,
                images,
                Perception {
                    backend: &QuestionLength,
                    batch: BatchConfig::new(32),
                    cache: Some(cache),
                },
                "image",
                "num_swords",
                "How many swords are depicted?",
                DataType::Int,
            )
        })
    };
    // N distinct images, N cache hits: the gather, the probes (each moving
    // its entry to the front of the cache's recency list) and the scatter
    // allocate no block per row.
    for rows in [100, 1_000] {
        let budget = STEP_BLOCKS;
        let blocks = blocks(rows);
        assert!(
            blocks <= budget,
            "{blocks} blocks for {rows} rows, budget {budget}"
        );
    }
}

#[test]
fn a_cached_text_qa_step_allocates_one_block_per_distinct_question() {
    let blocks = |rows: usize| {
        let schema = Schema::from_pairs(&[
            ("name", DataType::Str),
            ("game", DataType::Int),
            ("report", DataType::Text),
        ]);
        let mut reports = TableBuilder::new("reports", schema);
        for i in 0..rows {
            let report = format!("Team {i} won game {i} by {} points.", i % 30);
            let row = vec![
                Value::str(format!("Team {i}")),
                Value::Int(i as i64),
                Value::text(report),
            ];
            reports.push_row(row).unwrap();
        }
        let table = reports.build();
        warm_step_blocks(rows, |cache| {
            apply_text_qa(
                &table,
                Perception {
                    backend: &QuestionLength,
                    batch: BatchConfig::new(32),
                    cache: Some(cache),
                },
                "report",
                "margin",
                "By how many points did <name> win game <game>?",
                DataType::Int,
            )
        })
    };
    // Every row renders a question of its own, which its request must own:
    // one block per row and nothing else that grows with the rows.
    for rows in [100, 1_000] {
        let budget = STEP_BLOCKS + rows as u64;
        let blocks = blocks(rows);
        assert!(
            blocks <= budget,
            "{blocks} blocks for {rows} rows, budget {budget}"
        );
    }
}

/// `paintings_metadata(title, inception)` over `rows` rows, the inception
/// dates in the artwork lake's four formats plus an undated row in seven.
fn painting_metadata(rows: usize) -> Table {
    let schema = Schema::from_pairs(&[("title", DataType::Str), ("inception", DataType::Str)]);
    let mut metadata = TableBuilder::new("paintings_metadata", schema);
    for i in 0..rows {
        let year = 1300 + i % 650;
        let inception = match i % 7 {
            0 => "unknown".to_string(),
            1 | 4 => format!("{year}-{:02}-{:02}", 1 + i % 12, 1 + i % 28),
            2 | 5 => format!("c. {year}"),
            3 => format!("{year}"),
            _ => format!("{year}-{:02}", 1 + i % 12),
        };
        metadata
            .push_values([format!("Painting {i}"), inception])
            .unwrap();
    }
    metadata.build()
}

#[test]
fn a_transform_step_allocates_the_same_whatever_the_row_count() {
    let codegen = TransformCodegen::new();
    for description in [
        "Extract the year from the inception dates",
        "Extract the century from the inception dates",
    ] {
        let blocks = |table: &Table| {
            let (blocks, (_, result)) = blocks_allocated(|| {
                apply_python_udf(table, &codegen, description, "new_column", None)
            });
            assert_eq!(result.unwrap().num_rows(), table.num_rows());
            blocks
        };
        let (small, large) = (painting_metadata(100), painting_metadata(2_000));
        // Warm up once, so no lazily built process state is charged to the
        // first measured step.
        blocks(&small);
        // Compile, one output column and the appended schema: the kernel
        // reads every inception string in place and builds no value, vector
        // or string per row.
        assert_eq!(blocks(&small), blocks(&large), "{description}");
    }
}

#[test]
fn a_string_function_allocates_the_same_whatever_the_row_count() {
    let upper = [ops::Projection::new(
        Expr::Func {
            func: ScalarFunc::Upper,
            args: vec![Expr::col("title")],
        },
        "upper_title",
    )];
    let blocks = |table: &Table| {
        let (blocks, projected) = blocks_allocated(|| ops::project(table, &upper).unwrap());
        assert_eq!(
            projected.value(1, "upper_title").unwrap(),
            Value::str("PAINTING 1")
        );
        blocks
    };
    let (small, large) = (painting_metadata(100), painting_metadata(2_000));
    blocks(&small);
    // Each title is uppercased into the output column's byte buffer, which
    // starts at the titles' size: no string of its own per row, and no
    // buffer regrown.
    assert_eq!(blocks(&small), blocks(&large));
}

/// `paintings(year, century)` over `rows` rows: years from 1300 to 1949,
/// all seven of their centuries within the first 100 rows.
fn dated_paintings(rows: usize) -> Table {
    let schema = Schema::from_pairs(&[("year", DataType::Int), ("century", DataType::Int)]);
    let mut paintings = TableBuilder::new("paintings", schema);
    for i in 0..rows {
        let year = 1300 + (i as i64 * 37) % 650;
        let row = vec![Value::Int(year), Value::Int(year / 100 + 1)];
        paintings.push_row(row).unwrap();
    }
    paintings.build()
}

#[test]
fn an_aggregation_allocates_the_same_whatever_the_row_count() {
    let min_year = [ops::AggCall::new(
        ops::AggFunc::Min,
        Some(Expr::col("year")),
        "first_year",
    )];
    let by_century = vec![(Expr::col("century"), "century".to_string())];
    let count = [ops::AggCall::count_star("paintings")];
    let cases = [(vec![], &min_year, 1), (by_century, &count, 7)];
    for (group_by, aggs, groups) in &cases {
        let (group_by, aggs, groups) = (group_by.as_slice(), aggs.as_slice(), *groups);
        let blocks = |table: &Table| {
            let (blocks, out) = blocks_allocated(|| ops::aggregate(table, group_by, aggs).unwrap());
            assert_eq!(out.num_rows(), groups);
            blocks
        };
        let (small, large) = (dated_paintings(100), dated_paintings(20_000));
        blocks(&small);
        // Pass 1 sizes the row-to-group vector once (none without GROUP
        // BY) and grows its group index with the groups only; pass 2 holds
        // one state per group and aggregate.
        assert_eq!(blocks(&small), blocks(&large), "{aggs:?} by {group_by:?}");
    }
}

/// [`painting_metadata`] with a yes/no `madonna_depicted` answer column.
fn yes_no_answers(rows: usize) -> Table {
    painting_metadata(rows)
        .with_new_column("madonna_depicted", DataType::Str, |i, _| {
            Ok(Value::str(if i % 3 == 0 { "yes" } else { "no" }))
        })
        .unwrap()
}

#[test]
fn a_yes_no_case_step_allocates_the_same_whatever_the_row_count() {
    let codegen = TransformCodegen::new();
    let blocks = |table: &Table| {
        let (blocks, (_, result)) = blocks_allocated(|| {
            apply_python_udf(
                table,
                &codegen,
                "Convert the yes/no values in the 'madonna_depicted' column to 1 and 0",
                "madonna_flag",
                None,
            )
        });
        let result = result.unwrap();
        assert_eq!(result.value(0, "madonna_flag").unwrap(), Value::Int(1));
        assert_eq!(result.value(1, "madonna_flag").unwrap(), Value::Int(0));
        blocks
    };
    let (small, large) = (yes_no_answers(100), yes_no_answers(2_000));
    blocks(&small);
    // `CASE WHEN madonna_depicted = 'yes' THEN 1 ELSE 0 END`: the condition
    // runs over the undecided rows, each result over the rows of its
    // branch, and one builder scatters them into the output column, each
    // vector sized to the rows once.
    assert_eq!(blocks(&small), blocks(&large));
}

#[test]
fn an_observation_of_a_two_valued_column_allocates_the_same_whatever_the_row_count() {
    let blocks = |rows: usize| {
        let table = yes_no_answers(rows);
        let new_columns = ["madonna_depicted".to_string()];
        let (blocks, observation) = blocks_allocated(|| table.observation(&new_columns));
        assert!(
            observation
                .new_columns
                .ends_with("Example values: [yes, no]."),
            "{observation}"
        );
        blocks
    };
    // Fewer than three values: every row is scanned, and each is compared
    // with the cells already kept, not rendered.
    blocks(100);
    assert_eq!(blocks(100), blocks(2_000));
}
