//! The worker pool perception dispatch fans out on.
//!
//! Relational operators run sequentially; the only parallel work in a query
//! is perception dispatch (`caesura_modal::batch`), which hands the batches
//! of a step to a scoped pool of `std::thread` workers. This module holds
//! that pool and the one knob it reads:
//!
//! * [`ExecConfig`] — `{ threads }`. `threads = 1` runs every batch on the
//!   calling thread.
//! * a process-wide default ([`exec_config`]) read once from the
//!   `CAESURA_THREADS` environment variable (hardware parallelism
//!   otherwise), plus a scoped, thread-local override ([`with_config`]) that
//!   the session uses to pin a configuration for one query without
//!   mutating global state.
//! * [`map_morsels`] / [`try_map_morsels`] — split `0..len` into morsels of
//!   a caller-chosen length and fan them out to up to `threads` workers that
//!   claim morsels from a shared atomic cursor (fast workers take more
//!   morsels). Results come back in morsel order, so callers merge them
//!   deterministically, independent of worker interleaving.
//! * [`Selection`] — the gather every relational operator goes through,
//!   which shares a column instead of copying it when the indices are the
//!   identity.

use crate::column::Column;
use crate::error::EngineResult;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Execution configuration of the worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads perception dispatch fans batches out over.
    /// `1` runs every batch on the calling thread.
    pub threads: usize,
}

impl ExecConfig {
    /// A configuration with an explicit thread count (at least one).
    pub fn new(threads: usize) -> Self {
        ExecConfig {
            threads: threads.max(1),
        }
    }

    /// The sequential configuration (`threads = 1`).
    pub fn sequential() -> Self {
        ExecConfig::new(1)
    }

    /// The configuration described by the environment: `CAESURA_THREADS`,
    /// or hardware parallelism when unset.
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
        ExecConfig::new(threads)
    }
}

thread_local! {
    static OVERRIDE: RefCell<Vec<ExecConfig>> = const { RefCell::new(Vec::new()) };
}

/// The configuration in effect on this thread: the innermost
/// [`with_config`] override, or the process-wide default.
pub fn exec_config() -> ExecConfig {
    static GLOBAL: OnceLock<ExecConfig> = OnceLock::new();
    OVERRIDE
        .with(|stack| stack.borrow().last().copied())
        .unwrap_or_else(|| *GLOBAL.get_or_init(ExecConfig::from_env))
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

/// Split `0..len` into morsels of `morsel_rows` rows and map `f` over them on
/// up to `config.threads` scoped workers, returning the per-morsel results
/// in morsel order. Workers claim morsels from a shared atomic cursor and
/// inherit the caller's execution configuration. Falls back to a plain
/// sequential map for one thread or one morsel.
pub fn map_morsels<R, F>(config: &ExecConfig, len: usize, morsel_rows: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = morsel_ranges(len, morsel_rows);
    if config.threads <= 1 || ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let inherited = exec_config();
    let workers = config.threads.min(ranges.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= ranges.len() {
            break;
        }
        // Each index is claimed by exactly one worker, so the per-slot lock
        // is uncontended.
        let result = f(ranges[i].clone());
        *slots[i].lock().expect("result slot lock poisoned") = Some(result);
    };
    std::thread::scope(|scope| {
        // The calling thread is worker 0 (its config is already in scope);
        // only `workers - 1` extra threads are spawned, keeping the OS
        // thread count at exactly the configured budget.
        for _ in 1..workers {
            scope.spawn(|| with_config(inherited, work));
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
pub fn try_map_morsels<R, F>(
    config: &ExecConfig,
    len: usize,
    morsel_rows: usize,
    f: F,
) -> EngineResult<Vec<R>>
where
    R: Send,
    F: Fn(Range<usize>) -> EngineResult<R> + Sync,
{
    let cancelled = AtomicBool::new(false);
    let slots: Vec<Option<EngineResult<R>>> = map_morsels(config, len, morsel_rows, |range| {
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
    for (range, slot) in morsel_ranges(len, morsel_rows).into_iter().zip(slots) {
        match slot {
            Some(Ok(value)) => out.push(value),
            Some(Err(error)) => return Err(error),
            None => out.push(f(range)?),
        }
    }
    Ok(out)
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
    /// is the identity, a gather otherwise. Byte-identical to
    /// `column.take(indices)` either way — a `Mixed` column is always
    /// gathered, because `take` re-packs it.
    pub fn gather(&self, column: &Arc<Column>) -> Arc<Column> {
        if self.identity && !matches!(**column, Column::Mixed(_)) {
            Arc::clone(column)
        } else {
            Arc::new(column.take(self.indices))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_ranges_cover_the_input_exactly_once() {
        let ranges = morsel_ranges(10, 3);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(morsel_ranges(0, 3), vec![0..0]);
        assert_eq!(morsel_ranges(3, 3), vec![0..3]);
    }

    #[test]
    fn map_morsels_preserves_order_under_parallelism() {
        let config = ExecConfig::new(4);
        let sums: Vec<usize> = map_morsels(&config, 17, 2, |range| range.sum());
        let expected: Vec<usize> = morsel_ranges(17, 2).into_iter().map(|r| r.sum()).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn try_map_morsels_reports_the_earliest_error() {
        let config = ExecConfig::new(4);
        let result = try_map_morsels(&config, 10, 1, |range| {
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
        let config = ExecConfig::new(2);
        let executed = AtomicUsize::new(0);
        let result = try_map_morsels(&config, 64, 1, |range| {
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
        let pinned = ExecConfig::new(exec_config().threads + 1);
        let seen = with_config(pinned, exec_config);
        assert_eq!(seen, pinned);
        assert_ne!(exec_config(), pinned);
    }

    #[test]
    fn workers_inherit_the_callers_config() {
        let pinned = ExecConfig::new(2);
        let seen = with_config(pinned, || map_morsels(&pinned, 4, 1, |_| exec_config()));
        assert!(seen.iter().all(|&cfg| cfg == pinned));
    }
}
