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

    #[test]
    fn update_statements_are_forbidden() {
        let err = run_sql(&catalog(), "UPDATE teams SET points = 0");
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("read-only"));
    }
}
