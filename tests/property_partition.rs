//! Query partitioning (Rigger & Su, *Finding Bugs in Database Systems via
//! Query Partitioning*, OOPSLA 2020) over the SQL front-end and the engine's
//! one batch evaluator.
//!
//! A predicate `p` splits every row into exactly one of three partitions:
//! `p` is true, false or NULL. So for random well-typed predicates over
//! nullable int, float and string columns:
//!
//! * the rows of `SELECT * FROM t` equal, as a multiset, the rows of
//!   `WHERE p`, `WHERE NOT (p)` and `WHERE (p) IS NULL` together;
//! * `SELECT COUNT(*) FROM t WHERE p` equals
//!   `SELECT SUM(CASE WHEN p THEN 1 ELSE 0 END) FROM t`.
//!
//! Both hold on plain and on dictionary-encoded tables, and `WHERE p` keeps
//! the same rows on both. The checks compare query answers only, so they
//! need no second evaluator to compare against.

use caesura::engine::{dict, sql, Catalog, DataType, Schema, Table, TableBuilder, Value};
use rand::{Rng, SeedableRng, StdRng};
use std::cmp::Ordering;

const TEAMS: [&str; 5] = ["Heat", "Spurs", "bulls", "Lakers", "heat"];
const CITIES: [&str; 4] = ["Miami", "Boston", "", "Denver"];

fn maybe_null(rng: &mut StdRng, value: Value) -> Value {
    if rng.gen_bool(0.15) {
        Value::Null
    } else {
        value
    }
}

/// A random table `t(a INT, b INT, f FLOAT, s STR, c STR)` with NULLs in
/// every column; both string columns have few distinct values, so they
/// dictionary-encode once the table has enough rows.
fn random_table(rng: &mut StdRng, rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
        ("c", DataType::Str),
    ]);
    let mut builder = TableBuilder::new("t", schema);
    for _ in 0..rows {
        let a = Value::Int(rng.gen_range(-4i64..5));
        let b = Value::Int(rng.gen_range(-4i64..5));
        let f = Value::Float(rng.gen_range(-12i64..13) as f64 / 4.0);
        let s = Value::str(TEAMS[rng.gen_range(0..TEAMS.len())]);
        let c = Value::str(CITIES[rng.gen_range(0..CITIES.len())]);
        let row = vec![
            maybe_null(rng, a),
            maybe_null(rng, b),
            maybe_null(rng, f),
            maybe_null(rng, s),
            maybe_null(rng, c),
        ];
        builder.push_row(row).unwrap();
    }
    builder.build()
}

/// A numeric operand: a column, a literal, or arithmetic over them. No
/// division, so no operand raises an error.
fn numeric(rng: &mut StdRng, depth: usize) -> String {
    if depth == 0 || rng.gen_bool(0.6) {
        return match rng.gen_range(0..6) {
            0 => "a".to_string(),
            1 => "b".to_string(),
            2 => "f".to_string(),
            3 => rng.gen_range(-3i64..4).to_string(),
            4 => format!("{:.2}", rng.gen_range(-8i64..9) as f64 / 4.0),
            _ => "NULL".to_string(),
        };
    }
    match rng.gen_range(0..4) {
        0 => format!("(-({}))", numeric(rng, depth - 1)),
        op => {
            let op = ["+", "-", "*"][op - 1];
            format!(
                "({} {op} {})",
                numeric(rng, depth - 1),
                numeric(rng, depth - 1)
            )
        }
    }
}

fn string_operand(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4) {
        0 => "s".to_string(),
        1 => "c".to_string(),
        2 => format!("'{}'", TEAMS[rng.gen_range(0..TEAMS.len())]),
        _ => format!("'{}'", CITIES[rng.gen_range(0..CITIES.len())]),
    }
}

fn comparison(rng: &mut StdRng) -> &'static str {
    ["=", "!=", "<", "<=", ">", ">="][rng.gen_range(0..6usize)]
}

/// A leaf predicate: every value it yields is true, false or NULL.
fn atom(rng: &mut StdRng) -> String {
    match rng.gen_range(0..9) {
        0 | 1 => format!(
            "{} {} {}",
            numeric(rng, 1),
            comparison(rng),
            numeric(rng, 1)
        ),
        2 => format!(
            "{} {} {}",
            string_operand(rng),
            comparison(rng),
            string_operand(rng)
        ),
        3 => {
            let pattern = ["%a%", "h%", "%s", "_eat", "%", ""][rng.gen_range(0..6usize)];
            let not = if rng.gen_bool(0.3) { "NOT " } else { "" };
            let column = ["s", "c"][rng.gen_range(0..2usize)];
            format!("{column} {not}LIKE '{pattern}'")
        }
        4 => {
            let items: Vec<String> = (0..rng.gen_range(1..4))
                .map(|_| match rng.gen_range(0..4) {
                    0 => "NULL".to_string(),
                    _ => rng.gen_range(-3i64..4).to_string(),
                })
                .collect();
            let not = if rng.gen_bool(0.4) { "NOT " } else { "" };
            let column = ["a", "b", "f"][rng.gen_range(0..3usize)];
            format!("{column} {not}IN ({})", items.join(", "))
        }
        5 => {
            let items: Vec<String> = (0..rng.gen_range(1..4))
                .map(|_| match rng.gen_range(0..4) {
                    0 => "NULL".to_string(),
                    _ => format!("'{}'", TEAMS[rng.gen_range(0..TEAMS.len())]),
                })
                .collect();
            let not = if rng.gen_bool(0.4) { "NOT " } else { "" };
            format!("s {not}IN ({})", items.join(", "))
        }
        6 => {
            let column = ["a", "b", "f", "s", "c"][rng.gen_range(0..5usize)];
            let not = if rng.gen_bool(0.5) { "NOT " } else { "" };
            format!("{column} IS {not}NULL")
        }
        7 => ["TRUE", "FALSE", "NULL"][rng.gen_range(0..3usize)].to_string(),
        _ => format!("{} = {}", numeric(rng, 0), numeric(rng, 0)),
    }
}

/// A random predicate of depth at most `depth` over the atoms above.
fn predicate(rng: &mut StdRng, depth: usize) -> String {
    if depth == 0 || rng.gen_bool(0.3) {
        return atom(rng);
    }
    match rng.gen_range(0..5) {
        0 => format!("NOT ({})", predicate(rng, depth - 1)),
        1 => format!("({}) IS NULL", predicate(rng, depth - 1)),
        op => {
            let op = if op == 2 { "OR" } else { "AND" };
            format!(
                "({}) {op} ({})",
                predicate(rng, depth - 1),
                predicate(rng, depth - 1)
            )
        }
    }
}

fn row_cmp(x: &[Value], y: &[Value]) -> Ordering {
    x.iter()
        .zip(y)
        .map(|(l, r)| l.total_cmp(r))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

fn sorted_rows(table: &Table) -> Vec<Vec<Value>> {
    let mut rows = table.to_rows();
    rows.sort_by(|x, y| row_cmp(x, y));
    rows
}

fn run(catalog: &Catalog, query: &str) -> Table {
    sql::run_sql(catalog, query).unwrap_or_else(|e| panic!("{query}: {e}"))
}

fn single_int(table: &Table, query: &str) -> Option<i64> {
    assert_eq!(table.num_rows(), 1, "{query}: one result row");
    let value = table.cell(0, 0).unwrap();
    if value.is_null() {
        return None;
    }
    Some(
        value
            .as_int()
            .unwrap_or_else(|| panic!("{query}: {value:?}")),
    )
}

/// Check both partitioning properties of `p` over the table `t` registered
/// in `catalog`, and return the rows `WHERE p` keeps (sorted).
fn check_partitions(catalog: &Catalog, all: &[Vec<Value>], p: &str) -> Vec<Vec<Value>> {
    let kept = run(catalog, &format!("SELECT * FROM t WHERE {p}"));
    let negated = run(catalog, &format!("SELECT * FROM t WHERE NOT ({p})"));
    let unknown = run(catalog, &format!("SELECT * FROM t WHERE ({p}) IS NULL"));
    let mut union: Vec<Vec<Value>> = [&kept, &negated, &unknown]
        .iter()
        .flat_map(|t| t.to_rows())
        .collect();
    union.sort_by(|x, y| row_cmp(x, y));
    assert_eq!(
        union, all,
        "WHERE p / NOT (p) / (p) IS NULL do not partition t: {p}"
    );

    let count_query = format!("SELECT COUNT(*) AS n FROM t WHERE {p}");
    let sum_query = format!("SELECT SUM(CASE WHEN {p} THEN 1 ELSE 0 END) AS n FROM t");
    let count = single_int(&run(catalog, &count_query), &count_query);
    let sum = single_int(&run(catalog, &sum_query), &sum_query);
    // SUM over no rows is NULL; it is 0 only then.
    assert_eq!(
        count,
        Some(sum.unwrap_or_else(|| {
            assert!(all.is_empty(), "{sum_query}: NULL over {} rows", all.len());
            0
        })),
        "COUNT(*) WHERE p != SUM(CASE WHEN p ...): {p}"
    );
    sorted_rows(&kept)
}

#[test]
fn predicates_partition_plain_and_dict_tables() {
    let mut rng = StdRng::seed_from_u64(0x9A27_1710);
    for rows in [0usize, 1, 9, 48, 96] {
        let base = random_table(&mut rng, rows);
        let plain = dict::decode_table(&base);
        let encoded = dict::encode_table(&base);
        if rows >= 48 {
            for column in ["s", "c"] {
                let idx = encoded.schema().resolve(column).unwrap();
                assert!(
                    encoded.columns()[idx].as_dict().is_some(),
                    "{column} must dictionary-encode at {rows} rows"
                );
            }
        }
        let all = sorted_rows(&plain);
        let mut plain_catalog = Catalog::new();
        plain_catalog.register(plain);
        let mut dict_catalog = Catalog::new();
        dict_catalog.register(encoded);
        for _ in 0..100 {
            let p = predicate(&mut rng, 3);
            let on_plain = check_partitions(&plain_catalog, &all, &p);
            let on_dict = check_partitions(&dict_catalog, &all, &p);
            assert_eq!(on_plain, on_dict, "WHERE p differs plain vs dict: {p}");
        }
    }
}
