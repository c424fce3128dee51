//! Hash joins.
//!
//! The paper's example plans join the metadata table with the
//! `painting_images` collection on `img_path`, and the rotowire `teams` table
//! with `team_to_games` / `game_reports`. All of those are inner equi-joins,
//! implemented as a classic build/probe hash join over the key *columns*.
//!
//! * **Build** files every build row into its key's *chain*: the table maps
//!   a key to the `(first, last)` build rows holding it, and one
//!   `next: Vec<u32>` links each build row to the next one with the same
//!   key — ascending row order, no heap `Vec` per key. A key is the cell's
//!   key ([`CellRef::key`], the rule `GROUP BY` and `DISTINCT` use too),
//!   borrowed from its column and hashed by one keyed multiply per word,
//!   so `2` joins `2.0` and a plain string joins a dictionary-encoded one.
//!   A dictionary-encoded build side chains its rows by `u32` code through
//!   a dense table and hashes each *entry* once, not each row.
//! * **Probe** reads each probe row's cell key, walks its chain, and emits
//!   matching index vectors for both sides. NULL keys never join.
//! * **Output** columns go through `Selection`: a side whose indices are
//!   the identity — both sides of a foreign-key join whose tables list their
//!   keys in the same order — is shared (`Arc::clone`), anything else is
//!   gathered in one pass per column (a plain string column's bytes are
//!   copied into one buffer; image keys and text documents move as `Arc`
//!   bumps).

use crate::column::Column;
use crate::error::{EngineError, EngineResult};
use crate::selection::Selection;
use crate::table::Table;
use crate::value::{key_map, CellRef, Key, KeyMap};
use std::sync::Arc;

/// Inner hash-join `left` and `right` on equality of `left_key` and
/// `right_key`.
///
/// The output schema is the join of both schemas with colliding column names
/// qualified by the input table names (see [`Schema::join`](crate::schema::Schema::join)).
pub fn hash_join(
    left: &Table,
    right: &Table,
    left_key: &str,
    right_key: &str,
) -> EngineResult<Table> {
    let left_idx = left.schema().resolve(left_key)?;
    let right_idx = right.schema().resolve(right_key)?;

    let schema = left
        .schema()
        .join(left.name(), right.schema(), right.name());

    let (left_indices, right_indices) =
        probe_indices(&left.columns()[left_idx], &right.columns()[right_idx]);

    let mut columns: Vec<Arc<Column>> = Vec::with_capacity(schema.len());
    for (indices, side) in [(&left_indices, left), (&right_indices, right)] {
        let selection = Selection::new(indices, side.num_rows());
        columns.extend(side.columns().iter().map(|c| selection.gather(c)));
    }

    Table::from_columns(
        format!("{}_{}_joined", left.name(), right.name()),
        schema,
        columns,
    )
    .map_err(|_| {
        EngineError::execution(
            "internal error: join produced columns that do not match the joined schema",
        )
    })
}

/// End of a chain, and the `first` of a key no build row holds.
const NIL: u32 = u32::MAX;

/// The `(first, last)` build rows of one key's chain.
type ChainEnds = (u32, u32);

const EMPTY: ChainEnds = (NIL, NIL);

/// Append build row `row` to the chain `ends` describes. Rows arrive in
/// ascending order, so following `next` from `first` visits a key's build
/// rows in ascending order — the match order of a sequential scan.
#[inline]
fn link(ends: &mut ChainEnds, next: &mut [u32], row: usize) {
    let row = row as u32;
    if ends.0 == NIL {
        *ends = (row, row);
    } else {
        next[ends.1 as usize] = row;
        ends.1 = row;
    }
}

/// The chains over the build column `right_key`, by cell key
/// ([`CellRef::key`]): NULL keys chain nowhere.
fn build<'a>(right_key: &'a Column, next: &mut [u32]) -> KeyMap<Key<'a>, ChainEnds> {
    if let Some((codes, dict, valid)) = right_key.as_dict() {
        // A dictionary-encoded build side chains by `u32` code through a
        // dense table, and hashes each entry once rather than each row.
        let mut chains = vec![EMPTY; dict.len()];
        for (row, &code) in codes.iter().enumerate() {
            if valid.is_valid(row) {
                link(&mut chains[code as usize], next, row);
            }
        }
        let entries = dict.iter().map(|entry| CellRef::Str(entry).key());
        let mut keyed = key_map(dict.len());
        keyed.extend(entries.zip(chains));
        return keyed;
    }
    // Looked up, then inserted on a miss: `entry` is not inlined for a
    // `Key`, and would cost a call per row.
    let mut chains = key_map(next.len());
    right_key.for_each_key(
        #[inline(always)]
        |row, key| {
            if let Some(ends) = chains.get_mut(&key) {
                link(ends, next, row);
            } else if key != Key::Null {
                chains.insert(key, (row as u32, row as u32));
            }
        },
    );
    chains
}

/// Build the chains over the right key column, probe with the left key
/// column, and emit matching index pairs: each left row's matches in
/// ascending build row order.
fn probe_indices(left_key: &Column, right_key: &Column) -> (Vec<usize>, Vec<usize>) {
    assert!(
        right_key.len() < NIL as usize,
        "join build side exceeds the u32 row space of its chains"
    );
    let mut next = vec![NIL; right_key.len()];
    let chains = build(right_key, &mut next);
    // FK-shaped joins emit ~1 row per probe row; reserving the probe length
    // up front avoids ~20 doubling reallocations on the way to a million-row
    // output.
    let mut left_indices = Vec::with_capacity(left_key.len());
    let mut right_indices = Vec::with_capacity(left_key.len());
    left_key.for_each_key(
        #[inline(always)]
        |i, key| {
            // NULL keys chain nowhere, so a NULL probe finds nothing.
            let mut j = chains.get(&key).map_or(NIL, |ends| ends.0);
            while j != NIL {
                left_indices.push(i);
                right_indices.push(j as usize);
                j = next[j as usize];
            }
        },
    );
    (left_indices, right_indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};

    fn metadata() -> Table {
        let schema = Schema::from_pairs(&[("title", DataType::Str), ("img_path", DataType::Str)]);
        let mut b = TableBuilder::new("paintings_metadata", schema);
        b.push_values(["Madonna", "img/1.png"]).unwrap();
        b.push_values(["Irises", "img/2.png"]).unwrap();
        b.push_values(["Lost", "img/404.png"]).unwrap();
        b.build()
    }

    fn images() -> Table {
        let schema = Schema::from_pairs(&[("img_path", DataType::Str), ("image", DataType::Image)]);
        let mut b = TableBuilder::new("painting_images", schema);
        b.push_row(vec![Value::str("img/1.png"), Value::image("img/1.png")])
            .unwrap();
        b.push_row(vec![Value::str("img/2.png"), Value::image("img/2.png")])
            .unwrap();
        b.build()
    }

    #[test]
    fn inner_join_on_img_path_matches_figure4() {
        let joined = hash_join(&metadata(), &images(), "img_path", "img_path").unwrap();
        assert_eq!(joined.num_rows(), 2);
        assert_eq!(joined.num_columns(), 4);
        assert!(joined.schema().contains("paintings_metadata.img_path"));
        assert!(joined.schema().contains("painting_images.img_path"));
        assert!(joined.schema().contains("image"));
    }

    #[test]
    fn null_keys_never_match() {
        let schema = Schema::from_pairs(&[("k", DataType::Str)]);
        let mut b = TableBuilder::new("l", schema.clone());
        b.push_row(vec![Value::Null]).unwrap();
        let left = b.build();
        let mut b = TableBuilder::new("r", schema);
        b.push_row(vec![Value::Null]).unwrap();
        let right = b.build();
        let joined = hash_join(&left, &right, "k", "k").unwrap();
        assert_eq!(joined.num_rows(), 0);
    }

    #[test]
    fn duplicate_keys_produce_cross_products_per_key() {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Str)]);
        let mut b = TableBuilder::new("games", schema.clone());
        b.push_values::<_, Value>(vec![Value::Int(1), Value::str("a")])
            .unwrap();
        b.push_values::<_, Value>(vec![Value::Int(1), Value::str("b")])
            .unwrap();
        let left = b.build();
        let mut b = TableBuilder::new("reports", schema);
        b.push_values::<_, Value>(vec![Value::Int(1), Value::str("x")])
            .unwrap();
        b.push_values::<_, Value>(vec![Value::Int(1), Value::str("y")])
            .unwrap();
        let right = b.build();
        let joined = hash_join(&left, &right, "k", "k").unwrap();
        assert_eq!(joined.num_rows(), 4);
    }

    /// One-row tables `l(k INT)` and `r(k FLOAT)`.
    fn int_and_float(int: i64, float: f64) -> (Table, Table) {
        let mut b = TableBuilder::new("l", Schema::from_pairs(&[("k", DataType::Int)]));
        b.push_row(vec![Value::Int(int)]).unwrap();
        let left = b.build();
        let mut b = TableBuilder::new("r", Schema::from_pairs(&[("k", DataType::Float)]));
        b.push_row(vec![Value::Float(float)]).unwrap();
        (left, b.build())
    }

    #[test]
    fn an_int_key_joins_the_float_equal_to_it_up_to_two_to_the_53() {
        // 2 must match 2.0, and 10^15 must match 1e15, as `=` says.
        for (int, float, rows) in [
            (2, 2.0, 1),
            (1_000_000_000_000_000, 1e15, 1),
            (1 << 53, 9_007_199_254_740_992.0, 1),
            (2, 2.5, 0),
        ] {
            let (left, right) = int_and_float(int, float);
            let joined = hash_join(&left, &right, "k", "k").unwrap();
            assert_eq!(joined.num_rows(), rows, "{int} = {float}");
        }
    }

    #[test]
    fn unknown_key_column_is_reported() {
        let err = hash_join(&metadata(), &images(), "imgpath", "img_path");
        assert!(matches!(err, Err(EngineError::UnknownColumn { .. })));
    }
}
