//! A read-only SQL subset: the engine-side substitute for the SQLite backend
//! used by the original CAESURA prototype.
//!
//! The mapping phase of CAESURA emits SQL strings as the arguments of the
//! *SQL (Join)*, *SQL (Selection)* and *SQL (Aggregation)* physical operators
//! (see Figure 4 of the paper). This module parses and executes those strings
//! against an in-memory [`Catalog`].
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```text
//! SELECT [DISTINCT] item [, item ...]
//! FROM table [alias]
//! [JOIN table [alias] ON expr ...]
//! [WHERE expr]
//! [GROUP BY expr [, expr ...]]
//! [HAVING expr]
//! [ORDER BY expr [ASC|DESC] [, ...]]
//! [LIMIT n]
//! ```
//!
//! where `item` is `*`, `expr [AS alias]`, or `agg(expr) [AS alias]` with
//! `agg ∈ {COUNT, SUM, AVG, MIN, MAX}` (including `COUNT(*)`). `JOIN` (also
//! spelled `INNER JOIN`) is an inner join; `LEFT`, `RIGHT` and `FULL [OUTER]
//! JOIN` are rejected with an [`EngineError::SqlParse`](crate::error::EngineError::SqlParse)
//! that names the clause.
//!
//! Any non-`SELECT` statement (UPDATE / INSERT / DELETE / DROP / ...) is
//! rejected with [`EngineError::ForbiddenStatement`](crate::error::EngineError::ForbiddenStatement),
//! implementing the security posture described in §5 of the paper.

mod ast;
mod exec;
mod lexer;
mod parser;

pub use ast::{JoinClause, OrderItem, SelectItem, SelectStatement, TableRef};
pub use exec::execute_select;
pub use lexer::{tokenize, Token};
pub use parser::{parse_expression, parse_select};

use crate::catalog::Catalog;
use crate::error::EngineResult;
use crate::table::Table;

/// Parse and execute a SQL string against a catalog.
///
/// This is the entry point used by CAESURA's SQL physical operators.
pub fn run_sql(catalog: &Catalog, sql: &str) -> EngineResult<Table> {
    execute_select(catalog, &parse_select(sql)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("name", DataType::Str),
            ("conference", DataType::Str),
            ("points", DataType::Int),
        ]);
        let mut b = TableBuilder::new("teams", schema);
        for (n, c, p) in [
            ("Heat", "Eastern", 102),
            ("Spurs", "Western", 110),
            ("Bulls", "Eastern", 95),
        ] {
            b.push_values::<_, Value>(vec![Value::str(n), Value::str(c), Value::Int(p)])
                .unwrap();
        }
        catalog.register(b.build());
        catalog
    }

    #[test]
    fn end_to_end_select_where_order() {
        let table = run_sql(
            &catalog(),
            "SELECT name FROM teams WHERE conference = 'Eastern' ORDER BY points DESC",
        )
        .unwrap();
        assert_eq!(table.num_rows(), 2);
        assert_eq!(table.value(0, "name").unwrap(), Value::str("Heat"));
    }

    #[test]
    fn end_to_end_group_by() {
        let table = run_sql(
            &catalog(),
            "SELECT conference, MAX(points) AS max_points FROM teams GROUP BY conference",
        )
        .unwrap();
        assert_eq!(table.num_rows(), 2);
        assert!(table.schema().contains("max_points"));
    }

    #[test]
    fn a_left_join_is_an_error_not_an_inner_join() {
        // Three teams, one of which has a game row: an inner join would
        // return one row where a left join returns three.
        let mut catalog = catalog();
        let schema = Schema::from_pairs(&[("name", DataType::Str), ("game_id", DataType::Int)]);
        let mut b = TableBuilder::new("games", schema);
        b.push_values::<_, Value>(vec![Value::str("Heat"), Value::Int(1)])
            .unwrap();
        catalog.register(b.build());
        let inner = run_sql(
            &catalog,
            "SELECT t.name FROM teams t JOIN games g ON t.name = g.name",
        )
        .unwrap();
        assert_eq!(inner.num_rows(), 1);
        let err = run_sql(
            &catalog,
            "SELECT t.name FROM teams t LEFT JOIN games g ON t.name = g.name",
        )
        .unwrap_err();
        assert!(
            matches!(&err, EngineError::SqlParse { message, .. } if message.contains("LEFT [OUTER] JOIN")),
            "{err:?}"
        );
    }

    /// `t(n INT, title STR)` with two rows, neither of which has `n > 100`.
    fn two_rows() -> Catalog {
        let schema = Schema::from_pairs(&[("n", DataType::Int), ("title", DataType::Str)]);
        let mut b = TableBuilder::new("t", schema);
        for (n, title) in [(1, "Irises"), (2, "Madonna")] {
            b.push_values::<_, Value>(vec![Value::Int(n), Value::str(title)])
                .unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register(b.build());
        catalog
    }

    /// `query` over [`two_rows`] succeeds with no row.
    fn returns_no_row(query: &str) {
        let table = run_sql(&two_rows(), query).unwrap_or_else(|e| panic!("{query}: {e}"));
        assert_eq!(table.num_rows(), 0, "{query}");
    }

    #[test]
    fn a_constant_type_error_reached_by_no_row_raises_nothing() {
        returns_no_row("SELECT ABS('x') AS a FROM t WHERE n > 100");
    }

    #[test]
    fn a_constant_division_by_zero_reached_by_no_row_raises_nothing() {
        returns_no_row("SELECT 1 / 0 AS a FROM t WHERE n > 100");
    }

    #[test]
    fn a_constant_negation_error_reached_by_no_row_raises_nothing() {
        returns_no_row("SELECT -'x' AS a FROM t WHERE n > 100");
    }

    #[test]
    fn a_constant_erring_sort_key_over_no_row_raises_nothing() {
        returns_no_row("SELECT n FROM t WHERE n > 100 ORDER BY 1 / 0");
    }

    #[test]
    fn a_constant_erring_group_key_over_no_row_raises_nothing() {
        returns_no_row("SELECT COUNT(*) AS c FROM t WHERE n > 100 GROUP BY ABS('x')");
    }

    #[test]
    fn constant_errors_reached_by_a_row_still_fail() {
        let catalog = two_rows();
        let err = run_sql(&catalog, "SELECT ABS('x') AS a FROM t").unwrap_err();
        assert!(matches!(err, EngineError::TypeMismatch { .. }), "{err:?}");
        let err = run_sql(&catalog, "SELECT -'x' AS a FROM t").unwrap_err();
        assert!(matches!(err, EngineError::TypeMismatch { .. }), "{err:?}");
        let err = run_sql(&catalog, "SELECT 1 / 0 AS a FROM t").unwrap_err();
        assert_eq!(err, EngineError::DivisionByZero);
    }

    #[test]
    fn an_unknown_column_fails_at_any_row_count() {
        let catalog = two_rows();
        for query in [
            "SELECT bogus FROM t WHERE n > 100",
            "SELECT CASE WHEN n > 0 THEN bogus ELSE 0 END AS a FROM t WHERE n > 100",
            "SELECT n IN (1, bogus) AS a FROM t WHERE n > 100",
            "SELECT CASE WHEN n > 0 THEN 1 ELSE bogus END AS a FROM t",
        ] {
            let err = run_sql(&catalog, query).unwrap_err();
            assert!(
                matches!(err, EngineError::UnknownColumn { .. }),
                "{query}: {err:?}"
            );
        }
    }

    #[test]
    fn abs_and_negation_saturate_at_the_smallest_int() {
        // CAST_INT saturates, so SQL text alone reaches i64::MIN.
        for query in [
            "SELECT ABS(CAST_INT(-100000000000000000000.0)) AS a FROM t",
            "SELECT -CAST_INT(-100000000000000000000.0) AS a FROM t",
            "SELECT -(CAST_INT(-100000000000000000000.0) + n - n) AS a FROM t",
        ] {
            let table = run_sql(&two_rows(), query).unwrap_or_else(|e| panic!("{query}: {e}"));
            for row in 0..2 {
                assert_eq!(
                    table.value(row, "a").unwrap(),
                    Value::Int(i64::MAX),
                    "{query}"
                );
            }
        }
    }

    /// The projected schema, which the planner reads, types `ABS` and unary
    /// `-` like their operand: what the column holds.
    #[test]
    fn abs_and_negation_are_typed_like_their_operand() {
        let query = "SELECT ABS(n) AS a, -n AS b, ABS(n * 1.5) AS c, -(n * 1.5) AS d FROM t";
        let table = run_sql(&two_rows(), query).unwrap();
        for (name, expected) in [
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Float),
            ("d", DataType::Float),
        ] {
            let idx = table.schema().resolve(name).unwrap();
            assert_eq!(
                table.schema().field(idx).unwrap().data_type,
                expected,
                "{name}"
            );
            assert_eq!(table.columns()[idx].data_type(), expected, "{name}");
        }
    }

    #[test]
    fn update_statements_are_forbidden() {
        let err = run_sql(&catalog(), "UPDATE teams SET points = 0");
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("read-only"));
    }
}
