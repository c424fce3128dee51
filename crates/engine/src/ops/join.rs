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
//!   key — ascending row order, no heap `Vec` per key. Three key shapes have
//!   typed probes: `i64` ⋈ `i64` and plain string ⋈ plain string hash the
//!   keys directly, and a plain string probe against a dictionary-encoded
//!   build indexes the chains by `u32` code (one string hash per build
//!   *entry*). Every other pair of key columns — a dictionary-encoded probe
//!   side included — hashes the stable rendered group key.
//! * **Probe** walks each probe row's chain and emits matching index vectors
//!   for both sides.
//! * **Output** columns go through `Selection`: a side whose indices are
//!   the identity — both sides of a foreign-key join whose tables list their
//!   keys in the same order — is shared (`Arc::clone`), anything else is
//!   gathered in one pass per column (strings move as `Arc` bumps, never as
//!   character copies).

use crate::column::{Bitmap, Column};
use crate::error::{EngineError, EngineResult};
use crate::selection::Selection;
use crate::table::Table;
use std::collections::HashMap;
use std::hash::Hash;
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

/// Chain every build row whose key `key_of` yields under its hashed key.
fn build_hashed<K: Hash + Eq>(
    next: &mut [u32],
    key_of: impl Fn(usize) -> Option<K>,
) -> HashMap<K, ChainEnds> {
    let mut chains = HashMap::with_capacity(next.len());
    for row in 0..next.len() {
        if let Some(key) = key_of(row) {
            link(chains.entry(key).or_insert(EMPTY), next, row);
        }
    }
    chains
}

/// Chain every valid build row under its dictionary code: a dense table
/// indexed by code, no hashing.
fn build_coded(codes: &[u32], valid: &Bitmap, entries: usize, next: &mut [u32]) -> Vec<ChainEnds> {
    let mut chains = vec![EMPTY; entries];
    for (row, &code) in codes.iter().enumerate() {
        if valid.is_valid(row) {
            link(&mut chains[code as usize], next, row);
        }
    }
    chains
}

/// Build the chains over the right key column, probe with the left key
/// column, and emit matching index pairs.
fn probe_indices(left_key: &Column, right_key: &Column) -> (Vec<usize>, Vec<usize>) {
    assert!(
        right_key.len() < NIL as usize,
        "join build side exceeds the u32 row space of its chains"
    );
    let mut next = vec![NIL; right_key.len()];
    let first = |ends: Option<&ChainEnds>| ends.map_or(NIL, |ends| ends.0);

    // Typed fast path: both sides are i64 keys.
    if let (Some((ldata, lvalid)), Some((rdata, rvalid))) =
        (left_key.as_int64(), right_key.as_int64())
    {
        let chains = build_hashed(&mut next, |i| rvalid.is_valid(i).then(|| rdata[i]));
        return emit(ldata.len(), &next, |i, _| {
            if lvalid.is_valid(i) {
                first(chains.get(&ldata[i]))
            } else {
                NIL
            }
        });
    }
    // Mixed fast path: plain probe side against a dictionary-encoded build
    // side — chains indexed by `u32` code, each probe string translated
    // through the build side's entry index.
    if let (Some((ldata, lvalid)), Some((rcodes, rdict, rvalid))) =
        (left_key.as_utf8(), right_key.as_dict())
    {
        let chains = build_coded(rcodes, rvalid, rdict.len(), &mut next);
        let entry_first: HashMap<&str, u32> = rdict
            .iter()
            .zip(&chains)
            .map(|(entry, ends)| (entry.as_ref(), ends.0))
            .collect();
        return emit(ldata.len(), &next, |i, _| {
            if lvalid.is_valid(i) {
                entry_first.get(ldata[i].as_ref()).copied().unwrap_or(NIL)
            } else {
                NIL
            }
        });
    }
    // Typed fast path: both sides are string keys.
    if let (Some((ldata, lvalid)), Some((rdata, rvalid))) =
        (left_key.as_utf8(), right_key.as_utf8())
    {
        let chains = build_hashed(&mut next, |i| rvalid.is_valid(i).then(|| rdata[i].as_ref()));
        return emit(ldata.len(), &next, |i, _| {
            if lvalid.is_valid(i) {
                first(chains.get(ldata[i].as_ref()))
            } else {
                NIL
            }
        });
    }
    // Generic path: hash the rendered group key (numeric unification included).
    let chains = build_hashed(&mut next, |i| {
        right_key.is_valid(i).then(|| {
            let mut key = String::new();
            right_key.write_group_key(i, &mut key);
            key
        })
    });
    emit(left_key.len(), &next, |i, buf| {
        if left_key.is_valid(i) {
            buf.clear();
            left_key.write_group_key(i, buf);
            first(chains.get(buf.as_str()))
        } else {
            NIL
        }
    })
}

/// Probe every left row — `first_of` yields the first build row of its key's
/// chain, or [`NIL`] — and emit the matching index pairs. The `String`
/// scratch buffer serves the generic rendered-key path (the typed paths
/// ignore it).
fn emit<F>(left_len: usize, next: &[u32], first_of: F) -> (Vec<usize>, Vec<usize>)
where
    F: Fn(usize, &mut String) -> u32,
{
    // FK-shaped joins emit ~1 row per probe row; reserving the probe length
    // up front avoids ~20 doubling reallocations on the way to a million-row
    // output.
    let mut left_indices = Vec::with_capacity(left_len);
    let mut right_indices = Vec::with_capacity(left_len);
    let mut buf = String::new();
    for i in 0..left_len {
        let mut j = first_of(i, &mut buf);
        while j != NIL {
            left_indices.push(i);
            right_indices.push(j as usize);
            j = next[j as usize];
        }
    }
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

    #[test]
    fn mixed_numeric_keys_join_through_the_generic_path() {
        // An int column joined against a float column: 2 must match 2.0,
        // exactly as the rendered group keys unify them.
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut b = TableBuilder::new("l", schema);
        b.push_row(vec![Value::Int(2)]).unwrap();
        let left = b.build();
        let schema = Schema::from_pairs(&[("k", DataType::Float)]);
        let mut b = TableBuilder::new("r", schema);
        b.push_row(vec![Value::Float(2.0)]).unwrap();
        let right = b.build();
        let joined = hash_join(&left, &right, "k", "k").unwrap();
        assert_eq!(joined.num_rows(), 1);
    }

    #[test]
    fn unknown_key_column_is_reported() {
        let err = hash_join(&metadata(), &images(), "imgpath", "img_path");
        assert!(matches!(err, Err(EngineError::UnknownColumn { .. })));
    }
}
