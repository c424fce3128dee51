//! Deterministic allocation gate for the per-query and per-row paths that
//! must not copy lake data: counts compared exactly (or against a stated
//! budget), so a regression fails here whatever the machine's speed.
//!
//! The counting allocator keeps one counter **per thread**, and every
//! measured section runs on the test's own thread (perception dispatch only
//! fans out for cache misses, and the measured steps have none), so the
//! counts do not depend on which other tests run beside this one. CI still
//! runs the binary with `--test-threads=1`.

use caesura::core::Executor;
use caesura::data::DataLake;
use caesura::engine::{ops, JoinType};
use caesura::modal::operators::{apply_text_qa, apply_visual_qa, Perception};
use caesura::modal::{
    BatchConfig, BatchStats, ImageObject, ImageStore, ModalResult, PerceptionBackend,
    PerceptionCache, PerceptionRequest,
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
        let (blocks, joined) = blocks_allocated(|| {
            ops::hash_join(metadata, images, "img_path", "img_path", JoinType::Inner).unwrap()
        });
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

/// Blocks a perception step may allocate whatever its row count: the output
/// column and schema, the collector's vectors and index as they double, the
/// resolved-answer vector.
const STEP_BLOCKS: u64 = 64;

/// Run `step` twice over `rows` rows through one cache: cold, then warm with
/// the allocations counted. Asserts the warm run was answered from memory.
fn warm_step_blocks(
    rows: usize,
    step: impl Fn(&PerceptionCache) -> (BatchStats, ModalResult<Table>),
) -> u64 {
    let cache = PerceptionCache::with_capacity(4 * rows);
    let (cold, first) = step(&cache);
    let (blocks, (warm, second)) = blocks_allocated(|| step(&cache));
    assert_eq!(
        (cold.cache_misses, cold.dispatched_requests()),
        (rows, rows)
    );
    assert_eq!((warm.cache_hits, warm.dispatched_requests()), (rows, 0));
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
