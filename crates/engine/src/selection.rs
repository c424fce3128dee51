//! The gather every relational operator goes through.

use crate::column::Column;
use std::sync::Arc;

/// A row selection over a source of `source_rows` rows, remembering whether
/// it is the identity `0..source_rows`. Gathering the identity reproduces the
/// column, so [`Selection::gather`] shares the column (`Arc::clone`) instead:
/// a foreign-key join whose probe emitted every row once, in order, or a
/// `take` of every row moves no cell data. The one gather `hash_join` and
/// `Table::take` go through.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Selection<'a> {
    indices: &'a [usize],
    identity: bool,
}

impl<'a> Selection<'a> {
    /// Wrap `indices` into a source of `source_rows` rows (one scan, which
    /// stops at the first index out of place).
    pub(crate) fn new(indices: &'a [usize], source_rows: usize) -> Self {
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
    pub(crate) fn gather(&self, column: &Arc<Column>) -> Arc<Column> {
        if self.identity && !matches!(**column, Column::Mixed(_)) {
            Arc::clone(column)
        } else {
            Arc::new(column.take(self.indices))
        }
    }
}
