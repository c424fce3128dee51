//! SQL abstract syntax tree for the supported SELECT subset.

use crate::expr::Expr;
use crate::ops::{AggFunc, SortOrder};

/// A table reference with an optional alias (`teams t`).
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name as it appears in the catalog.
    pub name: String,
    /// Optional alias used to qualify columns.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name used for qualification (the alias if present, else the name).
    pub fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// One JOIN clause (`JOIN games g ON t.game_id = g.game_id`).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// The ON condition.
    pub condition: Expr,
}

/// One item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — all columns.
    Wildcard,
    /// A scalar expression with an optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// Optional output name.
        alias: Option<String>,
    },
    /// An aggregate call with an optional alias; `expr` is `None` for `COUNT(*)`.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// The aggregated expression, `None` for `COUNT(*)`.
        expr: Option<Expr>,
        /// Optional output name.
        alias: Option<String>,
    },
}

impl SelectItem {
    /// Whether the item is an aggregate call.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, SelectItem::Aggregate { .. })
    }

    /// The output name of this item (alias if given, otherwise derived).
    pub fn output_name(&self, index: usize) -> String {
        match self {
            SelectItem::Wildcard => "*".to_string(),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => a.clone(),
                None => match expr {
                    Expr::Column(name) => name.rsplit('.').next().unwrap_or(name).to_string(),
                    other => {
                        let text = other.to_string();
                        if text.len() <= 30 {
                            text
                        } else {
                            format!("expr_{index}")
                        }
                    }
                },
            },
            SelectItem::Aggregate { func, expr, alias } => match alias {
                Some(a) => a.clone(),
                None => {
                    let inner = expr
                        .as_ref()
                        .map(|e| match e {
                            Expr::Column(name) => {
                                name.rsplit('.').next().unwrap_or(name).to_string()
                            }
                            other => other.to_string(),
                        })
                        .unwrap_or_else(|| "*".to_string());
                    format!("{}_{}", func.name().to_lowercase(), inner.replace('.', "_"))
                }
            },
        }
    }
}

/// One ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Expression to order by.
    pub expr: Expr,
    /// Direction.
    pub order: SortOrder,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// Whether DISTINCT was specified.
    pub distinct: bool,
    /// SELECT list.
    pub items: Vec<SelectItem>,
    /// FROM table.
    pub from: TableRef,
    /// JOIN clauses in order.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate (applied after aggregation).
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT, if any.
    pub limit: Option<usize>,
}

impl SelectStatement {
    /// Whether the statement aggregates (explicit GROUP BY or aggregate items).
    pub fn is_aggregation(&self) -> bool {
        !self.group_by.is_empty() || self.items.iter().any(SelectItem::is_aggregate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_names_for_plain_and_aggregate_items() {
        let item = SelectItem::Expr {
            expr: Expr::col("teams.name"),
            alias: None,
        };
        assert_eq!(item.output_name(0), "name");
        let item = SelectItem::Aggregate {
            func: AggFunc::Max,
            expr: Some(Expr::col("points_scored")),
            alias: None,
        };
        assert_eq!(item.output_name(0), "max_points_scored");
        let item = SelectItem::Aggregate {
            func: AggFunc::Count,
            expr: None,
            alias: Some("n".into()),
        };
        assert_eq!(item.output_name(0), "n");
    }

    #[test]
    fn aggregation_detection() {
        let stmt = SelectStatement {
            distinct: false,
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                expr: None,
                alias: None,
            }],
            from: TableRef {
                name: "t".into(),
                alias: None,
            },
            joins: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        };
        assert!(stmt.is_aggregation());
    }

    #[test]
    fn effective_name_prefers_alias() {
        let t = TableRef {
            name: "paintings_metadata".into(),
            alias: Some("m".into()),
        };
        assert_eq!(t.effective_name(), "m");
    }
}
