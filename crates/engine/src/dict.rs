//! Dictionary encoding for low-cardinality string columns.
//!
//! A [`Column::Dict`] stores each row as a `u32` code into a shared,
//! duplicate-free entry table (one [`Utf8Buffer`]) instead of a per-row
//! string. For columns whose distinct-value count is small relative to the
//! row count (category tags, join keys, enum-like labels) three kernels work
//! on the codes, with one string hash or comparison per *entry* instead of
//! one per row:
//!
//! * grouped aggregation keyed by one dictionary column
//!   ([`aggregate`](crate::ops::aggregate())),
//! * a column compared with, or `LIKE`-matched against, a string literal
//!   (the binary kernels of [`Expr::evaluate_batch`](crate::Expr::evaluate_batch)),
//! * a hash join whose build side is dictionary-encoded
//!   ([`hash_join`](crate::ops::hash_join)).
//!
//! Encoding happens at table **ingest** ([`Table::new`](crate::table::Table::new)
//! and [`TableBuilder::build`](crate::table::TableBuilder::build)), always,
//! and never inside operators, so every operator of a query sees the same
//! representation. `take` on a dict column preserves the encoding and
//! shares the entry table `Arc`; every other operator and key shape (sorts,
//! `IN` lists, dictionary-encoded join probes, column-vs-column compares,
//! keys of several columns) reads the strings through the exact
//! `Value`-level semantics of a plain [`Column::Utf8`].

use crate::column::{Column, Utf8Buffer};
use crate::table::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// Columns shorter than this are never dictionary-encoded — the bookkeeping
/// would cost more than the strings.
pub const MIN_ENCODE_ROWS: usize = 16;

/// Encoding requires at least this many rows per distinct value
/// (`distinct * MIN_ROWS_PER_DISTINCT <= rows`), i.e. a distinct-ratio of at
/// most 1/4. High-cardinality columns (titles, free text) stay plain.
pub const MIN_ROWS_PER_DISTINCT: usize = 4;

/// Dictionary-encode a [`Column::Utf8`] whose cardinality is low enough
/// (see [`MIN_ENCODE_ROWS`] / [`MIN_ROWS_PER_DISTINCT`]). Returns `None` for
/// non-string columns, short columns, high-cardinality columns, and all-NULL
/// columns. Codes are assigned in first-appearance order; invalid slots store
/// code 0 and are masked by the bitmap, mirroring the placeholder convention
/// of the typed builders.
pub fn encode_column(column: &Column) -> Option<Column> {
    let (data, bitmap) = column.as_utf8()?;
    if data.len() < MIN_ENCODE_ROWS {
        return None;
    }
    let max_entries = data.len() / MIN_ROWS_PER_DISTINCT;
    let mut index: HashMap<&str, u32> = HashMap::new();
    let mut entries = Utf8Buffer::default();
    let mut codes: Vec<u32> = Vec::with_capacity(data.len());
    for (i, s) in data.iter().enumerate() {
        if !bitmap.is_valid(i) {
            codes.push(0);
            continue;
        }
        let code = match index.get(s) {
            Some(&code) => code,
            None => {
                if entries.len() >= max_entries {
                    // Too many distinct values: bail before scanning the rest.
                    return None;
                }
                let code = entries.len() as u32;
                entries.push(s);
                index.insert(s, code);
                code
            }
        };
        codes.push(code);
    }
    if entries.is_empty() {
        return None;
    }
    Some(Column::Dict {
        codes,
        dict: Arc::new(entries),
        bitmap: bitmap.clone(),
    })
}

/// Decode a [`Column::Dict`] back to a plain [`Column::Utf8`]. Invalid slots
/// get the empty-string placeholder the typed builders use, so a decoded
/// column is byte-identical to the column a plain build would have produced.
/// Non-dict columns are returned unchanged (cloned).
pub fn decode_column(column: &Column) -> Column {
    match column {
        Column::Dict {
            codes,
            dict,
            bitmap,
        } => {
            let entry = |(i, &code): (usize, &u32)| {
                if bitmap.is_valid(i) {
                    dict.get(code as usize)
                } else {
                    ""
                }
            };
            let bytes = codes.iter().enumerate().map(|c| entry(c).len()).sum();
            let mut data = Utf8Buffer::with_capacity(codes.len(), bytes);
            for s in codes.iter().enumerate().map(entry) {
                data.push(s);
            }
            Column::Utf8(data, bitmap.clone())
        }
        other => other.clone(),
    }
}

/// Apply [`encode_column`] to an ingested column, or pass it through
/// untouched when it is not eligible.
pub fn maybe_encode(column: Arc<Column>) -> Arc<Column> {
    match encode_column(&column) {
        Some(encoded) => Arc::new(encoded),
        None => column,
    }
}

/// Dictionary-encode every eligible column of a table. With
/// [`decode_table`], used by tests that need both representations of the
/// same data in one process.
pub fn encode_table(table: &Table) -> Table {
    let columns: Vec<Arc<Column>> = table
        .columns()
        .iter()
        .map(|c| match encode_column(c) {
            Some(encoded) => Arc::new(encoded),
            None => Arc::clone(c),
        })
        .collect();
    Table::from_columns(table.name().to_string(), table.schema().clone(), columns)
        .expect("re-encoding preserves arity and lengths")
}

/// Decode every dict column of a table back to plain strings.
pub fn decode_table(table: &Table) -> Table {
    let columns: Vec<Arc<Column>> = table
        .columns()
        .iter()
        .map(|c| match c.as_ref() {
            Column::Dict { .. } => Arc::new(decode_column(c)),
            _ => Arc::clone(c),
        })
        .collect();
    Table::from_columns(table.name().to_string(), table.schema().clone(), columns)
        .expect("decoding preserves arity and lengths")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn utf8_column(values: &[Option<&str>]) -> Column {
        Column::from_values(
            values
                .iter()
                .map(|v| v.map(Value::str).unwrap_or(Value::Null))
                .collect(),
        )
    }

    #[test]
    fn encode_round_trips_values_and_validity() {
        let values: Vec<Option<&str>> = (0..40)
            .map(|i| match i % 4 {
                0 => Some("red"),
                1 => Some("green"),
                2 => None,
                _ => Some("blue"),
            })
            .collect();
        let plain = utf8_column(&values);
        let encoded = encode_column(&plain).expect("low-cardinality column encodes");
        assert!(matches!(encoded, Column::Dict { .. }));
        assert_eq!(encoded.len(), plain.len());
        for i in 0..plain.len() {
            assert_eq!(encoded.get(i), plain.get(i), "row {i}");
            assert_eq!(encoded.is_valid(i), plain.is_valid(i), "row {i}");
        }
        // Decoding restores the exact plain representation, placeholders
        // included.
        assert_eq!(decode_column(&encoded), plain);
    }

    #[test]
    fn encode_rejects_small_high_cardinality_and_all_null_columns() {
        let small = utf8_column(&[Some("a"), Some("b")]);
        assert!(encode_column(&small).is_none());

        let unique: Vec<String> = (0..64).map(|i| format!("title-{i}")).collect();
        let unique_col =
            Column::from_values(unique.iter().map(|s| Value::str(s.as_str())).collect());
        assert!(encode_column(&unique_col).is_none());

        let nulls = Column::from_values(vec![Value::Null; 32]);
        assert!(encode_column(&nulls).is_none());

        let ints = Column::from_values((0..32).map(Value::Int).collect());
        assert!(encode_column(&ints).is_none());
    }

    #[test]
    fn codes_are_first_appearance_order_and_entries_unique() {
        let values: Vec<Option<&str>> = (0..32).map(|i| Some(["b", "a"][i % 2])).collect();
        let Column::Dict { codes, dict, .. } =
            encode_column(&utf8_column(&values)).expect("encodes")
        else {
            panic!("expected dict column");
        };
        assert_eq!(dict.len(), 2);
        assert_eq!(dict.get(0), "b");
        assert_eq!(dict.get(1), "a");
        assert_eq!(&codes[..4], &[0, 1, 0, 1]);
    }
}
