//! Hash joins.
//!
//! The paper's example plans join the metadata table with the
//! `painting_images` collection on `img_path`, and the rotowire `teams` table
//! with `team_to_games` / `game_reports`. All of those are equi-joins,
//! implemented as a classic build/probe hash join over the key *columns*.
//!
//! * **Build** files every build row into its key's *chain*: the table maps
//!   a key to the `(first, last)` build rows holding it, and one
//!   `next: Vec<u32>` links each build row to the next one with the same
//!   key — ascending row order, no heap `Vec` per key. Typed fast paths hash
//!   `i64` and `&str` keys directly, dictionary codes index a dense table
//!   without hashing at all, and other key types fall back to the stable
//!   rendered group key.
//! * **Probe** walks each probe row's chain and emits matching index vectors
//!   for both sides.
//! * **Output** columns go through `Selection`: a side whose indices are
//!   the identity — both sides of a foreign-key join whose tables list their
//!   keys in the same order — is shared (`Arc::clone`), anything else is
//!   gathered in one pass per column (strings move as `Arc` bumps, never as
//!   character copies).
//!
//! A left-outer variant pads unmatched probe rows with NULLs.

use crate::column::{Bitmap, Column};
use crate::error::{EngineError, EngineResult};
use crate::selection::Selection;
use crate::table::Table;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// The supported join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner equi-join.
    Inner,
    /// Left outer equi-join (unmatched left rows padded with NULLs).
    Left,
}

/// Hash-join `left` and `right` on equality of `left_key` and `right_key`.
///
/// The output schema is the join of both schemas with colliding column names
/// qualified by the input table names (see [`Schema::join`](crate::schema::Schema::join)).
pub fn hash_join(
    left: &Table,
    right: &Table,
    left_key: &str,
    right_key: &str,
    join_type: JoinType,
) -> EngineResult<Table> {
    let left_idx = left.schema().resolve(left_key)?;
    let right_idx = right.schema().resolve(right_key)?;

    let schema = left
        .schema()
        .join(left.name(), right.schema(), right.name());

    let (left_indices, right_indices) = probe_indices(
        &left.columns()[left_idx],
        &right.columns()[right_idx],
        join_type,
    );

    // Share or gather both sides. Joins that padded nothing emit dense right
    // indices, so the cheaper non-optional take kernel (and the identity
    // check) applies without a scan-and-repack pass.
    let mut columns: Vec<Arc<Column>> = Vec::with_capacity(schema.len());
    let selection = Selection::new(&left_indices, left.num_rows());
    columns.extend(left.columns().iter().map(|c| selection.gather(c)));
    match &right_indices {
        RightIndices::Dense(plain) => {
            let selection = Selection::new(plain, right.num_rows());
            columns.extend(right.columns().iter().map(|c| selection.gather(c)));
        }
        RightIndices::Padded(padded) => {
            columns.extend(right.columns().iter().map(|c| Arc::new(c.take_opt(padded))));
        }
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

/// Right-side match indices: a dense index per output row when nothing was
/// padded (every inner join, and a left join whose probe rows all matched);
/// `None` marks the NULL padding of an unmatched left row.
enum RightIndices {
    Dense(Vec<usize>),
    Padded(Vec<Option<usize>>),
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
fn probe_indices(
    left_key: &Column,
    right_key: &Column,
    join_type: JoinType,
) -> (Vec<usize>, RightIndices) {
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
        return emit(ldata.len(), join_type, &next, |i, _| {
            if lvalid.is_valid(i) {
                first(chains.get(&ldata[i]))
            } else {
                NIL
            }
        });
    }
    // Code-native fast path: both sides are dictionary-encoded string keys.
    // The build indexes chains by `u32` code; when the two columns do not
    // share one entry table, the probe side's entries are remapped into the
    // build side's code space first — one string hash per *entry* instead of
    // one per row.
    if let (Some((lcodes, ldict, lvalid)), Some((rcodes, rdict, rvalid))) =
        (left_key.as_dict(), right_key.as_dict())
    {
        let chains = build_coded(rcodes, rvalid, rdict.len(), &mut next);
        // Resolve the chain once per probe *entry*; the per-row probe is
        // then a plain index. Entries absent from the build dictionary
        // (`NO_REMAP`) simply miss.
        let per_entry: Vec<u32> = if Arc::ptr_eq(ldict, rdict) {
            chains.iter().map(|ends| ends.0).collect()
        } else {
            crate::dict::remap_entries(ldict, rdict)
                .into_iter()
                .map(|code| first(chains.get(code as usize)))
                .collect()
        };
        return emit(lcodes.len(), join_type, &next, |i, _| {
            if lvalid.is_valid(i) {
                per_entry[lcodes[i] as usize]
            } else {
                NIL
            }
        });
    }
    // Mixed fast path: dictionary-encoded probe side against a plain string
    // build side — hash each probe *entry* once, then look rows up by code.
    if let (Some((lcodes, ldict, lvalid)), Some((rdata, rvalid))) =
        (left_key.as_dict(), right_key.as_utf8())
    {
        let chains = build_hashed(&mut next, |i| rvalid.is_valid(i).then(|| rdata[i].as_ref()));
        let per_entry: Vec<u32> = ldict
            .iter()
            .map(|entry| first(chains.get(entry.as_ref())))
            .collect();
        return emit(lcodes.len(), join_type, &next, |i, _| {
            if lvalid.is_valid(i) {
                per_entry[lcodes[i] as usize]
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
        return emit(ldata.len(), join_type, &next, |i, _| {
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
        return emit(ldata.len(), join_type, &next, |i, _| {
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
    emit(left_key.len(), join_type, &next, |i, buf| {
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
fn emit<F>(
    left_len: usize,
    join_type: JoinType,
    next: &[u32],
    first_of: F,
) -> (Vec<usize>, RightIndices)
where
    F: Fn(usize, &mut String) -> u32,
{
    /// Stands in for `None` until a join that padded is repacked.
    const PAD: usize = usize::MAX;
    let pad_unmatched = join_type == JoinType::Left;
    // FK-shaped joins emit ~1 row per probe row (a left join at least one);
    // reserving the probe length up front avoids ~20 doubling reallocations
    // on the way to a million-row output.
    let mut left_indices = Vec::with_capacity(left_len);
    let mut right_indices = Vec::with_capacity(left_len);
    let mut padded = false;
    let mut buf = String::new();
    for i in 0..left_len {
        let mut j = first_of(i, &mut buf);
        if j == NIL && pad_unmatched {
            left_indices.push(i);
            right_indices.push(PAD);
            padded = true;
        }
        while j != NIL {
            left_indices.push(i);
            right_indices.push(j as usize);
            j = next[j as usize];
        }
    }
    let right_indices = if padded {
        RightIndices::Padded(
            right_indices
                .into_iter()
                .map(|j| (j != PAD).then_some(j))
                .collect(),
        )
    } else {
        RightIndices::Dense(right_indices)
    };
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
        let joined = hash_join(
            &metadata(),
            &images(),
            "img_path",
            "img_path",
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(joined.num_rows(), 2);
        assert_eq!(joined.num_columns(), 4);
        assert!(joined.schema().contains("paintings_metadata.img_path"));
        assert!(joined.schema().contains("painting_images.img_path"));
        assert!(joined.schema().contains("image"));
    }

    #[test]
    fn left_join_pads_missing_matches_with_nulls() {
        let joined = hash_join(
            &metadata(),
            &images(),
            "img_path",
            "img_path",
            JoinType::Left,
        )
        .unwrap();
        assert_eq!(joined.num_rows(), 3);
        let lost_row = joined
            .iter()
            .find(|r| r.get(0) == Value::str("Lost"))
            .expect("row for 'Lost' painting");
        assert!(lost_row.get(2).is_null());
        assert!(lost_row.get(3).is_null());
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
        let joined = hash_join(&left, &right, "k", "k", JoinType::Inner).unwrap();
        assert_eq!(joined.num_rows(), 0);
        let joined = hash_join(&left, &right, "k", "k", JoinType::Left).unwrap();
        assert_eq!(joined.num_rows(), 1);
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
        let joined = hash_join(&left, &right, "k", "k", JoinType::Inner).unwrap();
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
        let joined = hash_join(&left, &right, "k", "k", JoinType::Inner).unwrap();
        assert_eq!(joined.num_rows(), 1);
    }

    #[test]
    fn unknown_key_column_is_reported() {
        let err = hash_join(
            &metadata(),
            &images(),
            "imgpath",
            "img_path",
            JoinType::Inner,
        );
        assert!(matches!(err, Err(EngineError::UnknownColumn { .. })));
    }
}
