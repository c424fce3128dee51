//! Morsel-driven parallel execution.
//!
//! The vectorized kernels of this crate are embarrassingly parallel over row
//! ranges: columns are immutable and `Arc`-shared, so no locking is needed.
//! This module provides the worker-pool plumbing that exploits that:
//!
//! * [`ExecConfig`] — the `{ threads, morsel_rows }` knob. `threads = 1`
//!   falls back to the existing sequential code paths byte-for-byte.
//! * [`Region`] — the relational kernels with a parallel branch, each with
//!   the minimum row count at which that branch beat the sequential kernel
//!   in the committed crossover table (`BENCH_crossover.json`). The
//!   environment-derived default configuration is *gated* by those minima;
//!   an explicit [`ExecConfig::new`] pin is not, so tests and benches reach
//!   the parallel kernels at any size above one morsel.
//! * a process-wide default configuration ([`set_exec_config`] /
//!   [`exec_config`]) initialised from the `CAESURA_THREADS` environment
//!   variable (hardware parallelism otherwise) over 4096-row morsels, plus
//!   a scoped, thread-local override
//!   ([`with_config`]) that `Catalog` / executor / session knobs use to pin a
//!   configuration for one query without mutating global state.
//! * [`map_morsels`] / [`try_map_morsels`] — split `0..len` into fixed-size
//!   morsels and fan the chunks out to a scoped pool of `std::thread` workers
//!   that claim morsels from a shared atomic cursor (morsel-driven
//!   scheduling: fast workers steal more morsels). Results come back in
//!   morsel order, so every merge step below is deterministic and independent
//!   of worker interleaving.
//! * [`take_column`] / [`take_opt_column`] — parallel gather kernels, and
//!   [`Selection`], the gather every operator goes through, which shares a
//!   column instead of copying it when the indices are the identity.
//! * [`sort_indices`] — parallel stable sort of a row permutation (sorted
//!   runs per morsel, then pairwise merges), for comparators that define a
//!   total order.
//!
//! Determinism is a hard requirement: every helper here returns exactly the
//! bytes the sequential path produces (the `tests/property_parallel.rs`
//! harness asserts this for every operator, including validity bitmaps and
//! NULL ordering). The only caveat is floating-point `SUM`/`AVG`
//! aggregation, where per-morsel partial sums are merged in morsel order —
//! deterministic across runs, but a different addition order than the
//! row-order fold (exact whenever the addends are exactly representable,
//! e.g. integers below 2^53).

use crate::column::Column;
use crate::error::EngineResult;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering as CmpOrdering;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// A relational kernel with a morsel-parallel branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Compiled expression evaluation and selection vectors (σ, π).
    Expr,
    /// Column gathers ([`take_column`] / [`take_opt_column`]).
    Gather,
    /// Hash-join probe emission.
    Join,
    /// Grouped aggregation (per-morsel partial groups, merged in order).
    Aggregate,
    /// Sorting (per-morsel runs, pairwise merges) and key decoration.
    Sort,
}

impl Region {
    /// Every region, for tests and tools that sweep them.
    pub const ALL: [Region; 5] = [
        Region::Expr,
        Region::Gather,
        Region::Join,
        Region::Aggregate,
        Region::Sort,
    ];

    /// Admits no size: the region's parallel kernel never beat its
    /// sequential kernel at or below the largest measured size (1M rows).
    pub const NEVER: usize = usize::MAX;

    /// The smallest row count from which a *gated* configuration runs this
    /// region's parallel kernel: the smallest measured size in
    /// `BENCH_crossover.json` (`cargo run --release -p caesura-bench --bin
    /// crossover`; `threads = 1` vs `threads = nproc` on the 2-core
    /// reference box) from which every larger measured size is faster in
    /// parallel, or [`Region::NEVER`]. `tests/crossover_table.rs` holds the
    /// committed table and these constants to each other.
    pub const fn min_rows(self) -> usize {
        match self {
            Region::Expr => Region::NEVER,
            Region::Gather => Region::NEVER,
            Region::Join => Region::NEVER,
            Region::Aggregate => Region::NEVER,
            Region::Sort => Region::NEVER,
        }
    }
}

/// Execution configuration of the morsel-driven worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads an operator may use. `1` disables
    /// parallelism entirely and runs the original sequential code paths.
    /// Perception dispatch (`caesura_modal::batch`) fans batches out over
    /// this many workers whatever the table size.
    pub threads: usize,
    /// Number of rows per morsel (the unit of work a worker claims).
    pub morsel_rows: usize,
    /// Whether relational regions must also reach their measured minimum row
    /// count ([`Region::min_rows`]) before they use the pool. Set on the
    /// environment-derived default ([`ExecConfig::from_env`]), so the default
    /// path never runs a parallel kernel at a size where it measured slower
    /// than the sequential one; clear on explicit pins ([`ExecConfig::new`]),
    /// which ask for the pool by name and get it above one morsel.
    pub gated: bool,
}

impl ExecConfig {
    /// Default morsel size: large enough to amortize scheduling, small
    /// enough to keep all workers busy on mid-size tables.
    pub const DEFAULT_MORSEL_ROWS: usize = 4096;

    /// A configuration with explicit thread count and morsel size.
    pub fn new(threads: usize, morsel_rows: usize) -> Self {
        ExecConfig {
            threads: threads.max(1),
            morsel_rows: morsel_rows.max(1),
            gated: false,
        }
    }

    /// The sequential configuration (`threads = 1`).
    pub fn sequential() -> Self {
        ExecConfig::new(1, Self::DEFAULT_MORSEL_ROWS)
    }

    /// A parallel configuration with the given thread count and the default
    /// morsel size.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig::new(threads, Self::DEFAULT_MORSEL_ROWS)
    }

    /// The configuration described by the environment: `CAESURA_THREADS`
    /// (hardware parallelism when unset) over morsels of
    /// [`Self::DEFAULT_MORSEL_ROWS`], gated by the measured per-region
    /// minimum row counts.
    pub fn from_env() -> Self {
        let threads = std::env::var("CAESURA_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        ExecConfig {
            gated: true,
            ..ExecConfig::with_threads(threads)
        }
    }

    /// Whether `region` over `rows` rows should use the worker pool.
    /// Requires more than one morsel of work, so the chunks handed to
    /// workers never re-enter the pool (their length is at most
    /// `morsel_rows`), and — for a gated configuration — at least the
    /// region's measured minimum.
    pub fn should_parallelize(&self, region: Region, rows: usize) -> bool {
        self.threads > 1 && rows > self.morsel_rows && (!self.gated || rows >= region.min_rows())
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::from_env()
    }
}

fn global() -> &'static RwLock<ExecConfig> {
    static GLOBAL: OnceLock<RwLock<ExecConfig>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(ExecConfig::from_env()))
}

thread_local! {
    static OVERRIDE: RefCell<Vec<ExecConfig>> = const { RefCell::new(Vec::new()) };
    static FAN_OUTS: Cell<u64> = const { Cell::new(0) };
}

/// How many times this thread has fanned work out to the pool (calls of
/// [`map_parallel`] that spawned workers). Tests read it before and after an
/// operator to prove which kernel ran; nothing else depends on it.
pub fn fan_outs_on_this_thread() -> u64 {
    FAN_OUTS.with(Cell::get)
}

/// The configuration in effect on this thread: the innermost
/// [`with_config`] override, or the process-wide default.
pub fn exec_config() -> ExecConfig {
    if let Some(cfg) = OVERRIDE.with(|stack| stack.borrow().last().copied()) {
        return cfg;
    }
    *global().read().expect("exec config lock poisoned")
}

/// Replace the process-wide default configuration (used by benchmarks and
/// long-running services; per-query pinning should prefer [`with_config`]).
pub fn set_exec_config(config: ExecConfig) {
    *global().write().expect("exec config lock poisoned") = config;
}

/// Run `f` with `config` pinned as this thread's execution configuration.
/// Worker threads spawned by the pool inherit the caller's configuration, so
/// an override applies to a whole query, not just its top-level operator.
pub fn with_config<R>(config: ExecConfig, f: impl FnOnce() -> R) -> R {
    OVERRIDE.with(|stack| stack.borrow_mut().push(config));
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            OVERRIDE.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    let _guard = PopGuard;
    f()
}

/// Split `0..len` into consecutive ranges of at most `morsel_rows` rows.
pub fn morsel_ranges(len: usize, morsel_rows: usize) -> Vec<Range<usize>> {
    let step = morsel_rows.max(1);
    let mut ranges = Vec::with_capacity(len.div_ceil(step).max(1));
    let mut start = 0;
    while start < len {
        let end = (start + step).min(len);
        ranges.push(start..end);
        start = end;
    }
    if ranges.is_empty() {
        ranges.push(0..0);
    }
    ranges
}

/// Map `f` over `items` on up to `threads` scoped workers, returning the
/// results in item order. Workers claim items from a shared atomic cursor
/// (morsel-driven scheduling) and inherit the caller's execution
/// configuration, so nested operators see the same knobs. Falls back to a
/// plain sequential map for one thread or one item.
pub fn map_parallel<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    FAN_OUTS.with(|n| n.set(n.get() + 1));
    let config = exec_config();
    let workers = threads.min(items.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        // Each index is claimed by exactly one worker, so the per-slot lock
        // is uncontended.
        let result = f(&items[i]);
        *slots[i].lock().expect("result slot lock poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        // The calling thread is worker 0 (its config is already in scope);
        // only `workers - 1` extra threads are spawned, keeping the OS
        // thread count at exactly the configured budget.
        for _ in 1..workers {
            scope.spawn(|| with_config(config, work));
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Split `0..len` into morsels and map `f` over them in parallel, returning
/// the per-morsel results in morsel order.
pub fn map_morsels<R, F>(config: &ExecConfig, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = morsel_ranges(len, config.morsel_rows);
    map_parallel(config.threads, &ranges, |range| f(range.clone()))
}

/// Fallible [`map_morsels`]: returns the error of the earliest morsel that
/// failed (which, because each morsel evaluates its rows in order, is the
/// same error the sequential row-order evaluation reports).
///
/// Short-circuits: once any morsel fails, workers stop claiming new morsels
/// (best-effort, via a shared flag) instead of evaluating the rest of the
/// input. The canonical earliest-row error is then recovered by re-scanning
/// the morsels in order on the calling thread, re-running only the skipped
/// ones up to the first failure — bounded by exactly the work a sequential
/// scan stopping at that failure would do.
pub fn try_map_morsels<R, F>(config: &ExecConfig, len: usize, f: F) -> EngineResult<Vec<R>>
where
    R: Send,
    F: Fn(Range<usize>) -> EngineResult<R> + Sync,
{
    let cancelled = std::sync::atomic::AtomicBool::new(false);
    let slots: Vec<Option<EngineResult<R>>> = map_morsels(config, len, |range| {
        if cancelled.load(Ordering::Relaxed) {
            return None;
        }
        let result = f(range);
        if result.is_err() {
            cancelled.store(true, Ordering::Relaxed);
        }
        Some(result)
    });
    if !cancelled.load(Ordering::Relaxed) {
        return slots
            .into_iter()
            .map(|slot| slot.expect("no morsel was skipped without cancellation"))
            .collect();
    }
    // Error path: walk the morsels in order; everything before the first
    // failure either completed Ok or was skipped and is re-run here, so the
    // first error returned is the first error in row order.
    let mut out = Vec::new();
    for (range, slot) in morsel_ranges(len, config.morsel_rows)
        .into_iter()
        .zip(slots)
    {
        match slot {
            Some(Ok(value)) => out.push(value),
            Some(Err(error)) => return Err(error),
            None => out.push(f(range)?),
        }
    }
    Ok(out)
}

/// Parallel gather: split `indices` into morsels, `take` each chunk, and
/// move the chunk columns together in order. Byte-identical to
/// `column.take(indices)`.
pub fn take_column(column: &Column, indices: &[usize], config: &ExecConfig) -> Column {
    if !config.should_parallelize(Region::Gather, indices.len())
        || matches!(column, Column::Null(_))
    {
        return column.take(indices);
    }
    Column::concat(map_morsels(config, indices.len(), |range| {
        column.take(&indices[range])
    }))
}

/// Parallel optional gather (`None` slots become NULL padding), the
/// parallel sibling of [`Column::take_opt`].
pub fn take_opt_column(column: &Column, indices: &[Option<usize>], config: &ExecConfig) -> Column {
    if !config.should_parallelize(Region::Gather, indices.len())
        || matches!(column, Column::Null(_))
    {
        return column.take_opt(indices);
    }
    Column::concat(map_morsels(config, indices.len(), |range| {
        column.take_opt(&indices[range])
    }))
}

/// A row selection over a source of `source_rows` rows, remembering whether
/// it is the identity `0..source_rows`. Gathering the identity reproduces the
/// column, so [`Selection::gather`] shares the column (`Arc::clone`) instead:
/// a foreign-key join whose probe emitted every row once, in order, or a
/// `take` of every row moves no cell data. The one gather `hash_join`,
/// `Table::take` and the fused filter→project go through.
#[derive(Debug, Clone, Copy)]
pub struct Selection<'a> {
    indices: &'a [usize],
    identity: bool,
}

impl<'a> Selection<'a> {
    /// Wrap `indices` into a source of `source_rows` rows (one scan, which
    /// stops at the first index out of place).
    pub fn new(indices: &'a [usize], source_rows: usize) -> Self {
        Selection {
            indices,
            identity: indices.len() == source_rows
                && indices.iter().enumerate().all(|(at, &i)| i == at),
        }
    }

    /// The selected rows of `column`: the column itself when the selection
    /// is the identity, a (morsel-parallel) gather otherwise. Byte-identical
    /// to `column.take(indices)` either way — a `Mixed` column is always
    /// gathered, because `take` re-packs it.
    pub fn gather(&self, column: &Arc<Column>, config: &ExecConfig) -> Arc<Column> {
        if self.identity && !matches!(**column, Column::Mixed(_)) {
            Arc::clone(column)
        } else {
            Arc::new(take_column(column, self.indices, config))
        }
    }
}

/// Sort the permutation `0..len` by `cmp` in parallel: each morsel is sorted
/// into a run, then runs are merged pairwise (rounds of parallel merges).
///
/// `cmp` must define a **total** order — for row permutations that means a
/// final index tie-break — which makes the sorted permutation unique, so the
/// result is identical to a sequential stable sort regardless of how the
/// runs were split or merged.
pub fn sort_indices<F>(config: &ExecConfig, len: usize, cmp: F) -> Vec<usize>
where
    F: Fn(usize, usize) -> CmpOrdering + Sync,
{
    if !config.should_parallelize(Region::Sort, len) {
        let mut indices: Vec<usize> = (0..len).collect();
        indices.sort_by(|&a, &b| cmp(a, b));
        return indices;
    }
    let mut runs: Vec<Vec<usize>> = map_morsels(config, len, |range| {
        let mut run: Vec<usize> = range.collect();
        // The comparator is total, so an unstable sort is observationally
        // stable.
        run.sort_unstable_by(|&a, &b| cmp(a, b));
        run
    });
    while runs.len() > 1 {
        let mut pairs: Vec<(Vec<usize>, Vec<usize>)> = Vec::with_capacity(runs.len() / 2);
        let mut leftover = None;
        let mut iter = runs.into_iter();
        while let Some(first) = iter.next() {
            match iter.next() {
                Some(second) => pairs.push((first, second)),
                None => leftover = Some(first),
            }
        }
        runs = map_parallel(config.threads, &pairs, |(a, b)| merge_runs(a, b, &cmp));
        if let Some(run) = leftover {
            runs.push(run);
        }
    }
    runs.pop().unwrap_or_default()
}

fn merge_runs<F>(a: &[usize], b: &[usize], cmp: &F) -> Vec<usize>
where
    F: Fn(usize, usize) -> CmpOrdering,
{
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if cmp(a[i], b[j]) == CmpOrdering::Greater {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn morsel_ranges_cover_the_input_exactly_once() {
        let ranges = morsel_ranges(10, 3);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(morsel_ranges(0, 3), vec![0..0]);
        assert_eq!(morsel_ranges(3, 3), vec![0..3]);
    }

    #[test]
    fn map_morsels_preserves_order_under_parallelism() {
        let config = ExecConfig::new(4, 2);
        let sums: Vec<usize> = map_morsels(&config, 17, |range| range.sum());
        let expected: Vec<usize> = morsel_ranges(17, 2).into_iter().map(|r| r.sum()).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn try_map_morsels_reports_the_earliest_error() {
        let config = ExecConfig::new(4, 1);
        let result = try_map_morsels(&config, 10, |range| {
            if range.start >= 3 {
                Err(crate::error::EngineError::execution(format!(
                    "boom at {}",
                    range.start
                )))
            } else {
                Ok(range.start)
            }
        });
        assert!(result.unwrap_err().to_string().contains("boom at 3"));
    }

    #[test]
    fn try_map_morsels_short_circuits_after_a_failure() {
        // With morsel 0 failing, later morsels may be skipped by workers and
        // are only re-run (in order) up to the first failure — so the count
        // of executed morsels never exceeds what cancellation allows, and
        // the reported error is still morsel 0's.
        let config = ExecConfig::new(2, 1);
        let executed = AtomicUsize::new(0);
        let result = try_map_morsels(&config, 64, |range| {
            executed.fetch_add(1, Ordering::Relaxed);
            if range.start == 0 {
                Err(crate::error::EngineError::execution("first morsel failed"))
            } else {
                Ok(range.start)
            }
        });
        assert!(result
            .unwrap_err()
            .to_string()
            .contains("first morsel failed"));
        assert!(executed.load(Ordering::Relaxed) <= 64);
    }

    #[test]
    fn with_config_overrides_and_restores() {
        let pinned = ExecConfig::new(3, 17);
        let seen = with_config(pinned, exec_config);
        assert_eq!(seen, pinned);
        assert_ne!(exec_config(), pinned);
    }

    #[test]
    fn workers_inherit_the_callers_config() {
        let pinned = ExecConfig::new(2, 1);
        let seen = with_config(pinned, || map_morsels(&pinned, 4, |_| exec_config()));
        assert!(seen.iter().all(|&cfg| cfg == pinned));
    }

    #[test]
    fn parallel_take_matches_sequential_take() {
        let column = Column::from_values((0..100).map(Value::Int).collect());
        let indices: Vec<usize> = (0..100).rev().collect();
        let config = ExecConfig::new(4, 7);
        assert_eq!(
            take_column(&column, &indices, &config),
            column.take(&indices)
        );
    }

    #[test]
    fn sort_indices_matches_sequential_stable_sort() {
        let keys = [5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
        let cmp = |a: usize, b: usize| keys[a].cmp(&keys[b]).then(a.cmp(&b));
        let mut expected: Vec<usize> = (0..keys.len()).collect();
        expected.sort_by(|&a, &b| cmp(a, b));
        let config = ExecConfig::new(4, 3);
        assert_eq!(sort_indices(&config, keys.len(), cmp), expected);
    }
}
