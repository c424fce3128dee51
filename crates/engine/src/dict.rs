//! Dictionary encoding for low-cardinality string columns.
//!
//! A [`Column::Dict`] stores each row as a `u32` code into a shared,
//! duplicate-free entry table instead of a per-row `Arc<str>`. For columns
//! whose distinct-value count is small relative to the row count (category
//! tags, join keys, enum-like labels) this turns the hot paths of hash join,
//! grouped aggregation, sorting, and equality filtering into integer
//! operations: no string hashing or byte comparison per row.
//!
//! Encoding happens at table **ingest** ([`Table::new`](crate::table::Table::new)
//! and [`TableBuilder::build`](crate::table::TableBuilder::build)) behind the
//! `CAESURA_DICT_ENCODE` knob — never inside operators, so every operator of
//! a query sees the same representation. `slice`/`take` on a dict column preserve the encoding and
//! share the entry table `Arc`; operators that cannot exploit the codes fall
//! back to the exact `Value`-level semantics of a plain [`Column::Utf8`].

use crate::column::Column;
use crate::table::Table;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Columns shorter than this are never dictionary-encoded — the bookkeeping
/// would cost more than the strings.
pub const MIN_ENCODE_ROWS: usize = 16;

/// Encoding requires at least this many rows per distinct value
/// (`distinct * MIN_ROWS_PER_DISTINCT <= rows`), i.e. a distinct-ratio of at
/// most 1/4. High-cardinality columns (titles, free text) stay plain.
pub const MIN_ROWS_PER_DISTINCT: usize = 4;

fn enabled_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let from_env = std::env::var("CAESURA_DICT_ENCODE")
            .map(|v| !matches!(v.trim(), "0" | "false" | "off" | "no"))
            .unwrap_or(true);
        AtomicBool::new(from_env)
    })
}

/// Whether table ingest dictionary-encodes eligible string columns.
/// Defaults to on; `CAESURA_DICT_ENCODE=0` disables it process-wide, and
/// [`set_dict_encode`] overrides it at runtime.
pub fn dict_encode_enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Override the `CAESURA_DICT_ENCODE` knob at runtime (used by the session
/// configuration plumbing in `caesura-core` and by tests).
pub fn set_dict_encode(enabled: bool) {
    enabled_flag().store(enabled, Ordering::Relaxed)
}

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
    let mut entries: Vec<Arc<str>> = Vec::new();
    let mut codes: Vec<u32> = Vec::with_capacity(data.len());
    for (i, s) in data.iter().enumerate() {
        if !bitmap.is_valid(i) {
            codes.push(0);
            continue;
        }
        let code = match index.get(s.as_ref()) {
            Some(&code) => code,
            None => {
                if entries.len() >= max_entries {
                    // Too many distinct values: bail before scanning the rest.
                    return None;
                }
                let code = entries.len() as u32;
                entries.push(Arc::clone(s));
                index.insert(s.as_ref(), code);
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
            let empty: Arc<str> = Arc::from("");
            let data: Vec<Arc<str>> = codes
                .iter()
                .enumerate()
                .map(|(i, &code)| {
                    if bitmap.is_valid(i) {
                        Arc::clone(&dict[code as usize])
                    } else {
                        Arc::clone(&empty)
                    }
                })
                .collect();
            Column::Utf8(data, bitmap.clone())
        }
        other => other.clone(),
    }
}

/// Apply [`encode_column`] to an ingested column if the knob is on; otherwise
/// (or when the column is not eligible) pass it through untouched.
pub fn maybe_encode(column: Arc<Column>) -> Arc<Column> {
    if !dict_encode_enabled() {
        return column;
    }
    match encode_column(&column) {
        Some(encoded) => Arc::new(encoded),
        None => column,
    }
}

/// Dictionary-encode every eligible column of a table, ignoring the
/// `CAESURA_DICT_ENCODE` knob. Used by tests and benches that need both
/// representations of the same data in one process.
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

/// Remap the codes of `from` (a dict entry table) into the code space of
/// `to`: `remap[c]` is the code of entry `c` in `to`, or [`NO_REMAP`] when
/// the entry does not occur there. One string hash per **entry** replaces
/// one per **row** on the join/filter hot paths.
pub fn remap_entries(from: &[Arc<str>], to: &[Arc<str>]) -> Vec<u32> {
    let index: HashMap<&str, u32> = to
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_ref(), i as u32))
        .collect();
    from.iter()
        .map(|s| index.get(s.as_ref()).copied().unwrap_or(NO_REMAP))
        .collect()
}

/// Sentinel produced by [`remap_entries`] for entries absent from the target
/// dictionary. Safe because encoding caps dictionaries far below `u32::MAX`.
pub const NO_REMAP: u32 = u32::MAX;

/// Byte-order ranks for a dict entry table: `rank[code]` is the position of
/// entry `code` in the lexicographic ordering of the (duplicate-free)
/// entries. Sorting rows by rank is then identical to sorting them by string
/// value, which is what the sort fast path relies on.
pub fn entry_ranks(entries: &[Arc<str>]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..entries.len() as u32).collect();
    order.sort_by(|&a, &b| entries[a as usize].cmp(&entries[b as usize]));
    let mut ranks = vec![0u32; entries.len()];
    for (rank, &code) in order.iter().enumerate() {
        ranks[code as usize] = rank as u32;
    }
    ranks
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
        assert_eq!(dict.as_ref().len(), 2);
        assert_eq!(dict[0].as_ref(), "b");
        assert_eq!(dict[1].as_ref(), "a");
        assert_eq!(&codes[..4], &[0, 1, 0, 1]);
    }

    #[test]
    fn remap_translates_codes_and_flags_missing_entries() {
        let from: Vec<Arc<str>> = vec![Arc::from("x"), Arc::from("y"), Arc::from("z")];
        let to: Vec<Arc<str>> = vec![Arc::from("y"), Arc::from("x")];
        assert_eq!(remap_entries(&from, &to), vec![1, 0, NO_REMAP]);
    }

    #[test]
    fn entry_ranks_order_lexicographically() {
        let entries: Vec<Arc<str>> = vec![Arc::from("pear"), Arc::from("apple"), Arc::from("fig")];
        assert_eq!(entry_ranks(&entries), vec![2, 0, 1]);
    }
}
