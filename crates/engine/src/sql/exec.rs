//! Executor: turn a parsed [`SelectStatement`] into a result [`Table`].

use super::ast::{SelectItem, SelectStatement, TableRef};
use crate::catalog::Catalog;
use crate::error::{EngineError, EngineResult};
use crate::expr::{BinaryOp, Expr};
use crate::ops::{
    aggregate, distinct, filter, hash_join, limit, project, sort, AggCall, Projection, SortKey,
};
use crate::table::Table;

/// Execute a SELECT statement against a catalog.
pub fn execute_select(catalog: &Catalog, statement: &SelectStatement) -> EngineResult<Table> {
    // 1. FROM + JOINs.
    let mut current = load_table(catalog, &statement.from)?;
    for join in &statement.joins {
        let right = load_table(catalog, &join.table)?;
        current = execute_join(&current, &right, &join.condition)?;
    }

    // 2. WHERE.
    if let Some(predicate) = &statement.where_clause {
        current = filter(&current, predicate)?;
    }

    // 3. Aggregation or plain projection.
    let mut result = if statement.is_aggregation() {
        execute_aggregation(&current, statement)?
    } else {
        execute_projection(&current, statement)?
    };

    // 4. HAVING on the (already projected) aggregate output for the
    // non-aggregate path it was handled inside execute_aggregation.
    // 5. ORDER BY.
    if !statement.order_by.is_empty() {
        let keys: Vec<SortKey> = statement
            .order_by
            .iter()
            .map(|o| SortKey {
                expr: o.expr.clone(),
                order: o.order,
            })
            .collect();
        // Order-by expressions may reference projected aliases (common) or, for
        // the non-aggregate path, original input columns that were projected
        // away. Try the projected table first, then fall back to sorting the
        // input before re-projecting.
        match sort(&result, &keys) {
            Ok(sorted) => result = sorted,
            Err(_) if !statement.is_aggregation() => {
                let sorted_input = sort(&current, &keys)?;
                result = execute_projection(&sorted_input, statement)?;
            }
            Err(e) => return Err(e),
        }
    }

    // 6. DISTINCT.
    if statement.distinct {
        result = distinct(&result)?;
    }

    // 7. LIMIT.
    if let Some(n) = statement.limit {
        result = limit(&result, n)?;
    }

    Ok(result.renamed("query_result"))
}

fn load_table(catalog: &Catalog, table_ref: &TableRef) -> EngineResult<Table> {
    // Shallow copy: the columns stay Arc-shared with the catalog's table.
    let table = catalog.table(&table_ref.name)?.as_ref().clone();
    Ok(table.renamed(table_ref.effective_name()))
}

/// Execute a join given an arbitrary ON condition. Equality of two column
/// references uses the hash join; anything else falls back to a nested-loop
/// cross join followed by a filter on the condition.
fn execute_join(left: &Table, right: &Table, condition: &Expr) -> EngineResult<Table> {
    if let Expr::Binary {
        left: lhs,
        op: BinaryOp::Eq,
        right: rhs,
    } = condition
    {
        if let (Expr::Column(a), Expr::Column(b)) = (lhs.as_ref(), rhs.as_ref()) {
            // Figure out which column belongs to which side.
            let a_in_left = left.schema().contains(a);
            let b_in_right = right.schema().contains(b);
            if a_in_left && b_in_right {
                return hash_join(left, right, a, b);
            }
            let b_in_left = left.schema().contains(b);
            let a_in_right = right.schema().contains(a);
            if b_in_left && a_in_right {
                return hash_join(left, right, b, a);
            }
            return Err(EngineError::execution(format!(
                "join condition '{condition}' does not reference one column from each side \
                 (left columns: {:?}, right columns: {:?})",
                left.schema().names(),
                right.schema().names()
            )));
        }
    }
    // General condition: cross join + filter.
    let cross = cross_join(left, right)?;
    filter(&cross, condition)
}

fn cross_join(left: &Table, right: &Table) -> EngineResult<Table> {
    let schema = left
        .schema()
        .join(left.name(), right.schema(), right.name());
    // Vectorized: build the two index vectors of the cross product and gather
    // each column once.
    let pairs = left.num_rows() * right.num_rows();
    let mut left_indices = Vec::with_capacity(pairs);
    let mut right_indices = Vec::with_capacity(pairs);
    for i in 0..left.num_rows() {
        for j in 0..right.num_rows() {
            left_indices.push(i);
            right_indices.push(j);
        }
    }
    let mut columns = Vec::with_capacity(schema.len());
    for col in left.columns() {
        columns.push(std::sync::Arc::new(col.take(&left_indices)));
    }
    for col in right.columns() {
        columns.push(std::sync::Arc::new(col.take(&right_indices)));
    }
    Table::from_columns(
        format!("{}_{}_cross", left.name(), right.name()),
        schema,
        columns,
    )
}

/// Project a non-aggregate SELECT list, with wildcards expanded against the
/// input schema.
fn execute_projection(input: &Table, statement: &SelectStatement) -> EngineResult<Table> {
    if statement.having.is_some() {
        return Err(EngineError::InvalidAggregate {
            message: "HAVING requires GROUP BY or aggregate functions".into(),
        });
    }
    let mut projections = Vec::new();
    for (i, item) in statement.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for field in input.schema().fields() {
                    projections.push(Projection {
                        expr: Expr::col(field.name.clone()),
                        alias: field.name.clone(),
                    });
                }
            }
            SelectItem::Expr { expr, .. } => {
                projections.push(Projection::new(expr.clone(), item.output_name(i)));
            }
            SelectItem::Aggregate { .. } => unreachable!("handled by execute_aggregation"),
        }
    }
    project(input, &projections)
}

fn execute_aggregation(input: &Table, statement: &SelectStatement) -> EngineResult<Table> {
    // Wildcards make no sense under aggregation.
    if statement
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Wildcard))
    {
        return Err(EngineError::InvalidAggregate {
            message: "SELECT * cannot be combined with GROUP BY or aggregate functions".into(),
        });
    }

    // Group-by keys: alias each expression with a stable name.
    let group_by: Vec<(Expr, String)> = statement
        .group_by
        .iter()
        .enumerate()
        .map(|(i, expr)| {
            let alias = match expr {
                Expr::Column(name) => name.rsplit('.').next().unwrap_or(name).to_string(),
                other => format!("group_{i}_{}", truncate_ident(&other.to_string())),
            };
            (expr.clone(), alias)
        })
        .collect();

    // Non-aggregate SELECT items must correspond to group-by expressions.
    for item in &statement.items {
        if let SelectItem::Expr { expr, .. } = item {
            let matches_group = statement.group_by.iter().any(|g| exprs_equivalent(g, expr));
            if !matches_group {
                return Err(EngineError::InvalidAggregate {
                    message: format!(
                        "column '{expr}' must appear in the GROUP BY clause or be used in an aggregate function"
                    ),
                });
            }
        }
    }

    // Aggregate calls.
    let mut agg_calls = Vec::new();
    for (i, item) in statement.items.iter().enumerate() {
        if let SelectItem::Aggregate { func, expr, .. } = item {
            agg_calls.push(AggCall::new(*func, expr.clone(), item.output_name(i)));
        }
    }

    let aggregated = aggregate(input, &group_by, &agg_calls)?;

    // HAVING can reference group keys and aggregate aliases.
    let aggregated = match &statement.having {
        Some(predicate) => filter(&aggregated, predicate)?,
        None => aggregated,
    };

    // Final projection: reorder/rename to match the SELECT list.
    let mut projections = Vec::with_capacity(statement.items.len());
    for (i, item) in statement.items.iter().enumerate() {
        match item {
            SelectItem::Expr { expr, .. } => {
                // Find the group alias this expression was grouped under.
                let alias = group_by
                    .iter()
                    .find(|(g, _)| exprs_equivalent(g, expr))
                    .map(|(_, alias)| alias.clone())
                    .expect("validated above");
                projections.push(Projection::new(Expr::col(alias), item.output_name(i)));
            }
            SelectItem::Aggregate { .. } => {
                let name = item.output_name(i);
                projections.push(Projection::new(Expr::col(name.clone()), name));
            }
            SelectItem::Wildcard => unreachable!("rejected above"),
        }
    }
    project(&aggregated, &projections)
}

/// Two expressions are considered equivalent for GROUP BY matching if they
/// render identically, or if both are column references whose unqualified
/// names match (so `SELECT name ... GROUP BY t.name` works).
fn exprs_equivalent(a: &Expr, b: &Expr) -> bool {
    if a == b {
        return true;
    }
    match (a, b) {
        (Expr::Column(x), Expr::Column(y)) => {
            let bx = x.rsplit('.').next().unwrap_or(x);
            let by = y.rsplit('.').next().unwrap_or(y);
            bx.eq_ignore_ascii_case(by)
        }
        _ => a.to_string().eq_ignore_ascii_case(&b.to_string()),
    }
}

fn truncate_ident(text: &str) -> String {
    text.chars()
        .filter(|c| c.is_alphanumeric() || *c == '_')
        .take(20)
        .collect::<String>()
        .to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::sql::parse_select;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();

        let schema = Schema::from_pairs(&[("name", DataType::Str), ("conference", DataType::Str)]);
        let mut b = TableBuilder::new("teams", schema);
        for (n, c) in [
            ("Heat", "Eastern"),
            ("Spurs", "Western"),
            ("Bulls", "Eastern"),
        ] {
            b.push_values([n, c]).unwrap();
        }
        catalog.register(b.build());

        let schema = Schema::from_pairs(&[
            ("name", DataType::Str),
            ("game_id", DataType::Int),
            ("points", DataType::Int),
        ]);
        let mut b = TableBuilder::new("team_to_games", schema);
        for (n, g, p) in [
            ("Heat", 1, 102),
            ("Heat", 2, 95),
            ("Spurs", 1, 110),
            ("Spurs", 3, 99),
            ("Bulls", 2, 87),
            ("Bulls", 3, 105),
        ] {
            b.push_values::<_, Value>(vec![Value::str(n), Value::Int(g), Value::Int(p)])
                .unwrap();
        }
        catalog.register(b.build());

        catalog
    }

    fn run(sql: &str) -> EngineResult<Table> {
        let statement = parse_select(sql)?;
        execute_select(&catalog(), &statement)
    }

    #[test]
    fn select_star_returns_all_columns() {
        let out = run("SELECT * FROM teams").unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 2);
    }

    #[test]
    fn join_then_aggregate_matches_rotowire_plan_shape() {
        // Mirrors Figure 4 Query 1: join teams with games, then MAX per team.
        let out = run("SELECT t.name, MAX(g.points) AS max_points \
             FROM teams t JOIN team_to_games g ON t.name = g.name \
             GROUP BY t.name ORDER BY max_points DESC")
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, "name").unwrap(), Value::str("Spurs"));
        assert_eq!(out.value(0, "max_points").unwrap(), Value::Int(110));
    }

    #[test]
    fn where_and_order_and_limit() {
        let out = run("SELECT name, points FROM team_to_games WHERE points > 90 \
             ORDER BY points DESC LIMIT 2")
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "points").unwrap(), Value::Int(110));
        assert_eq!(out.value(1, "points").unwrap(), Value::Int(105));
    }

    #[test]
    fn order_by_column_not_in_projection() {
        let out = run("SELECT name FROM team_to_games ORDER BY points DESC").unwrap();
        assert_eq!(out.value(0, "name").unwrap(), Value::str("Spurs"));
        assert_eq!(out.schema().names(), vec!["name"]);
    }

    #[test]
    fn group_by_with_having() {
        let out =
            run("SELECT conference, COUNT(*) AS n FROM teams GROUP BY conference HAVING n > 1")
                .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "conference").unwrap(), Value::str("Eastern"));
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(2));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let out =
            run("SELECT COUNT(*) AS n, AVG(points) AS avg_points FROM team_to_games").unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(6));
    }

    #[test]
    fn distinct_removes_duplicate_rows() {
        let out = run("SELECT DISTINCT conference FROM teams").unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn selecting_a_column_not_in_group_by_is_an_error() {
        let err = run("SELECT name, COUNT(*) FROM teams GROUP BY conference").unwrap_err();
        assert!(matches!(err, EngineError::InvalidAggregate { .. }));
    }

    #[test]
    fn unknown_table_and_column_errors_are_descriptive() {
        let err = run("SELECT * FROM nonexistent").unwrap_err();
        assert!(err.to_string().contains("available tables"));
        let err = run("SELECT wrong_col FROM teams").unwrap_err();
        assert!(err.to_string().contains("available columns"));
    }

    #[test]
    fn non_equi_join_falls_back_to_cross_join_with_filter() {
        let out = run(
            "SELECT t.name FROM teams t JOIN team_to_games g ON t.name != g.name WHERE g.points > 100",
        )
        .unwrap();
        // points > 100 rows: Heat(102), Spurs(110), Bulls(105) → each matches 2 other teams.
        assert_eq!(out.num_rows(), 6);
    }

    #[test]
    fn having_without_group_by_is_rejected() {
        let err = run("SELECT name FROM teams HAVING name = 'Heat'").unwrap_err();
        assert!(matches!(err, EngineError::InvalidAggregate { .. }));
    }

    #[test]
    fn expression_projection_with_alias() {
        let out = run("SELECT UPPER(name) AS shout FROM teams ORDER BY shout").unwrap();
        assert_eq!(out.value(0, "shout").unwrap(), Value::str("BULLS"));
    }
}
