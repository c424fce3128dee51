//! The shared, chain-built hash join against its reference.
//!
//! `ops::hash_join` chains build rows through one `next` array and shares a
//! side whose indices are the identity. The reference kept here is the join
//! it replaced, reduced to its definition: one heap `Vec` of build rows per
//! cell key (the key rule written out in `common`), every output column
//! gathered with `Column::take`, nothing shared. The two must be
//! **byte-identical** — storage variants, validity bitmap words and NULL
//! placeholders included — over every pair of key shapes: int, float,
//! utf8, dict (shared and foreign entry tables) and mixed, at small keys
//! and at keys near 10^15 and 2^53, with duplicate keys, NULL keys, a
//! shuffled right side and unmatched probe rows. A second family of tests
//! pins *what is shared*: the columns of an identity side are the input's
//! own `Arc`s.

use caesura::engine::{dict, ops, Column, DataType, Schema, Table, Value};
use common::cell_key;
use rand::{Rng, SeedableRng, StdRng};
use std::collections::HashMap;
use std::sync::Arc;

mod common;

/// The reference join: `Vec`-per-key build over cell keys, a gather per
/// output column.
fn reference_join(left: &Table, right: &Table, key: &str) -> Table {
    let left_key = &left.columns()[left.schema().resolve(key).unwrap()];
    let right_key = &right.columns()[right.schema().resolve(key).unwrap()];
    let mut build = HashMap::new();
    for row in 0..right_key.len() {
        if right_key.is_valid(row) {
            let key = cell_key(&right_key.get(row));
            build.entry(key).or_insert_with(Vec::new).push(row);
        }
    }
    let mut left_indices = Vec::new();
    let mut right_indices = Vec::new();
    for row in 0..left_key.len() {
        let matches = left_key
            .is_valid(row)
            .then(|| build.get(&cell_key(&left_key.get(row))))
            .flatten();
        for &j in matches.into_iter().flatten() {
            left_indices.push(row);
            right_indices.push(j);
        }
    }
    let mut columns: Vec<Arc<Column>> = left
        .columns()
        .iter()
        .map(|c| Arc::new(c.take(&left_indices)))
        .collect();
    columns.extend(
        right
            .columns()
            .iter()
            .map(|c| Arc::new(c.take(&right_indices))),
    );
    Table::from_columns(
        format!("{}_{}_joined", left.name(), right.name()),
        left.schema()
            .join(left.name(), right.schema(), right.name()),
        columns,
    )
    .unwrap()
}

fn assert_byte_identical(expected: &Table, actual: &Table, context: &str) {
    assert_eq!(expected.name(), actual.name(), "name: {context}");
    assert_eq!(expected.schema(), actual.schema(), "schema: {context}");
    assert_eq!(expected.num_rows(), actual.num_rows(), "rows: {context}");
    for (i, (a, b)) in expected.columns().iter().zip(actual.columns()).enumerate() {
        assert_eq!(a.as_ref(), b.as_ref(), "column {i}: {context}");
    }
}

/// How a generated key column is stored.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyKind {
    Int,
    Float,
    Utf8,
    Dict,
    Mixed,
}

/// `rows` keys drawn from `domain` distinct values from `base` on (as few
/// as a dictionary accepts, for `Dict`), ~10 % NULL.
fn key_column(rng: &mut StdRng, kind: KeyKind, rows: usize, base: i64, domain: i64) -> Column {
    let domain = match kind {
        KeyKind::Dict => domain.min((rows / dict::MIN_ROWS_PER_DISTINCT).max(1) as i64),
        _ => domain,
    };
    let values: Vec<Value> = (0..rows)
        .map(|_| {
            let k = base + rng.gen_range(0..domain);
            if rng.gen_bool(0.1) {
                return Value::Null;
            }
            match kind {
                KeyKind::Int => Value::Int(k),
                KeyKind::Float => Value::Float(k as f64),
                KeyKind::Utf8 | KeyKind::Dict => Value::str(format!("key-{k}")),
                KeyKind::Mixed if k % 2 == 0 => Value::Int(k),
                KeyKind::Mixed => Value::str(format!("key-{k}")),
            }
        })
        .collect();
    let column = Column::from_values(values);
    match kind {
        // Encoded by hand, so the representation does not depend on the
        // ingest heuristic's thresholds.
        KeyKind::Dict => dict::encode_column(&column).unwrap_or(column),
        _ => column,
    }
}

/// A table of one key column `k` and three payload columns (a nullable int,
/// a string, and a mixed column, which `take` re-packs).
fn keyed_table(rng: &mut StdRng, name: &str, key: Column) -> Table {
    let rows = key.len();
    let payload = Column::from_values(
        (0..rows)
            .map(|i| {
                if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    Value::Int(i as i64)
                }
            })
            .collect(),
    );
    let label = Column::from_values(
        (0..rows)
            .map(|i| Value::str(format!("{name}-{i}")))
            .collect(),
    );
    let mixed = Column::from_values(
        (0..rows)
            .map(|i| match i % 3 {
                0 => Value::Int(i as i64),
                1 => Value::str("x"),
                _ => Value::Null,
            })
            .collect(),
    );
    let schema = Schema::from_pairs(&[
        ("k", DataType::Null),
        ("payload", DataType::Int),
        ("label", DataType::Str),
        ("mixed", DataType::Null),
    ]);
    let columns = [key, payload, label, mixed].map(Arc::new).to_vec();
    Table::from_columns(name, schema, columns).unwrap()
}

/// Compare `hash_join` with the reference.
fn check(left: &Table, right: &Table, context: &str) {
    assert_byte_identical(
        &reference_join(left, right, "k"),
        &ops::hash_join(left, right, "k", "k").unwrap(),
        context,
    );
}

#[test]
fn shared_chain_built_join_matches_the_gather_reference_on_every_key_path() {
    use KeyKind::*;
    // (probe key, build key): a build side chained by code or by cell key,
    // probed by every shape.
    let paths = [
        (Int, Int),
        (Dict, Dict),
        (Dict, Utf8),
        (Utf8, Dict),
        (Utf8, Utf8),
        (Mixed, Mixed),
        (Int, Float),
        (Float, Int),
        (Mixed, Utf8),
        (Mixed, Dict),
    ];
    // Keys from 0, from 10^15, and up to 2^53, the last int every float
    // key holds exactly.
    let bases = [0, 1_000_000_000_000_000, (1 << 53) - 401];
    for (seed, (left_kind, right_kind)) in (0..3u64).flat_map(|s| paths.map(|p| (s, p))) {
        let mut rng = StdRng::seed_from_u64(0x5EED_701E ^ seed);
        let base = bases[seed as usize];
        for (left_rows, right_rows, domain) in [
            (0usize, 5usize, 4i64),
            (5, 0, 4),
            (1, 1, 1),
            // Duplicate keys on both sides: cross products per key.
            (60, 40, 6),
            // Mostly unique keys, many unmatched probe rows.
            (120, 64, 400),
        ] {
            let key = key_column(&mut rng, left_kind, left_rows, base, domain);
            let left = keyed_table(&mut rng, "l", key);
            let key = key_column(&mut rng, right_kind, right_rows, base, domain + 2);
            let right = keyed_table(&mut rng, "r", key);
            // Exercise the path named, not whatever the data happened to
            // pack into.
            if left_rows >= 60 {
                assert_eq!(left.columns()[0].as_dict().is_some(), left_kind == Dict);
                assert_eq!(right.columns()[0].as_dict().is_some(), right_kind == Dict);
            }
            let context = format!(
                "seed {seed}, {left_kind:?} x {right_kind:?} from {base}, \
                 {left_rows} x {right_rows} rows"
            );
            check(&left, &right, &context);
            // A self-join probes a key against its own column (for a dict
            // key, one entry table on both sides) and emits every duplicate
            // pair.
            check(&left, &left, &format!("self-join, {context}"));
        }
    }
}

/// Unique string keys `img/<i>.png` for rows `order`, plus one payload.
fn fk_table(name: &str, order: &[usize], key_nulls: &[usize]) -> Table {
    let key = Column::from_values(
        order
            .iter()
            .map(|&i| {
                if key_nulls.contains(&i) {
                    Value::Null
                } else {
                    Value::str(format!("img/{i}.png"))
                }
            })
            .collect(),
    );
    let payload = Column::from_values(order.iter().map(|&i| Value::Int(i as i64)).collect());
    let schema = Schema::from_pairs(&[("k", DataType::Str), (name, DataType::Int)]);
    Table::from_columns(name, schema, vec![Arc::new(key), Arc::new(payload)]).unwrap()
}

fn shares(output: &Table, at: usize, input: &Table, column: usize) -> bool {
    Arc::ptr_eq(&output.columns()[at], &input.columns()[column])
}

#[test]
fn identity_sides_of_a_foreign_key_join_are_shared_not_gathered() {
    let order: Vec<usize> = (0..200).collect();
    let metadata = fk_table("metadata", &order, &[]);
    let images = fk_table("images", &order, &[]);
    let joined = ops::hash_join(&metadata, &images, "k", "k").unwrap();
    assert_byte_identical(&reference_join(&metadata, &images, "k"), &joined, "fk join");
    for column in 0..2 {
        assert!(shares(&joined, column, &metadata, column), "left {column}");
        assert!(
            shares(&joined, 2 + column, &images, column),
            "right {column}"
        );
    }
}

#[test]
fn a_shuffled_right_side_is_gathered_while_the_left_stays_shared() {
    let mut rng = StdRng::seed_from_u64(7);
    let order: Vec<usize> = (0..200).collect();
    let mut shuffled = order.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..i + 1));
    }
    let metadata = fk_table("metadata", &order, &[]);
    let images = fk_table("images", &shuffled, &[]);
    let joined = ops::hash_join(&metadata, &images, "k", "k").unwrap();
    assert_byte_identical(
        &reference_join(&metadata, &images, "k"),
        &joined,
        "shuffled right side",
    );
    assert!(shares(&joined, 0, &metadata, 0) && shares(&joined, 1, &metadata, 1));
    assert!(!shares(&joined, 2, &images, 0) && !shares(&joined, 3, &images, 1));
}

#[test]
fn unmatched_and_null_probe_rows_share_only_where_the_gather_is_the_identity() {
    let order: Vec<usize> = (0..100).collect();
    // Rows 3 and 40 carry NULL keys; the right side lacks rows 90..100.
    let metadata = fk_table("metadata", &order, &[3, 40]);
    let images = fk_table("images", &order[..90], &[]);

    // Probe rows drop out, so neither side is the identity.
    let inner = ops::hash_join(&metadata, &images, "k", "k").unwrap();
    assert_eq!(inner.num_rows(), 88);
    assert_byte_identical(
        &reference_join(&metadata, &images, "k"),
        &inner,
        "inner with unmatched rows",
    );
    assert!(!shares(&inner, 0, &metadata, 0) && !shares(&inner, 2, &images, 0));
}

#[test]
fn take_of_every_row_in_order_shares_the_columns() {
    let table = fk_table("metadata", &(0..50).collect::<Vec<_>>(), &[7]);
    let all: Vec<usize> = (0..50).collect();
    let taken = table.take(&all);
    assert!(shares(&taken, 0, &table, 0) && shares(&taken, 1, &table, 1));
    let reversed: Vec<usize> = (0..50).rev().collect();
    assert!(!shares(&table.take(&reversed), 0, &table, 0));
    // A prefix has the right order but not every row.
    assert!(!shares(&table.take(&all[..49]), 0, &table, 0));
}
