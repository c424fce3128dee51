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
//! `agg ∈ {COUNT, SUM, AVG, MIN, MAX}` (including `COUNT(*)`).
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
    fn update_statements_are_forbidden() {
        let err = run_sql(&catalog(), "UPDATE teams SET points = 0");
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("read-only"));
    }
}
