//! Recursive-descent parser for the SELECT subset.

use super::ast::{JoinClause, OrderItem, SelectItem, SelectStatement, TableRef};
use super::lexer::{tokenize, Token};
use crate::error::{EngineError, EngineResult};
use crate::expr::{BinaryOp, Expr, ScalarFunc, UnaryOp};
use crate::ops::{AggFunc, SortOrder};
use crate::value::Value;

/// The keywords that open an outer join, which the parser rejects by name.
const OUTER_JOINS: [&str; 3] = ["LEFT", "RIGHT", "FULL"];

/// Parse a full SELECT statement. Non-SELECT statements are rejected.
pub fn parse_select(sql: &str) -> EngineResult<SelectStatement> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser { tokens, pos: 0 };
    let statement = parser.parse_statement()?;
    parser.expect_end()?;
    Ok(statement)
}

/// Parse a standalone scalar expression (used by the transform DSL and by the
/// physical Selection operator, whose argument is a bare condition such as
/// `p.madonna_depicted = 'yes'`).
pub fn parse_expression(text: &str) -> EngineResult<Expr> {
    let tokens = tokenize(text)?;
    let mut parser = Parser { tokens, pos: 0 };
    let expr = parser.parse_expr()?;
    parser.expect_end()?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let token = self.tokens.get(self.pos).cloned();
        if token.is_some() {
            self.pos += 1;
        }
        token
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_keyword(kw)).unwrap_or(false)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> EngineResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(EngineError::sql(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_token(&mut self, token: &Token) -> bool {
        if self.peek() == Some(token) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, token: &Token, what: &str) -> EngineResult<()> {
        if self.eat_token(token) {
            Ok(())
        } else {
            Err(EngineError::sql(format!(
                "expected {what}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_end(&mut self) -> EngineResult<()> {
        // Allow a trailing semicolon.
        self.eat_token(&Token::Semicolon);
        match self.peek() {
            None => Ok(()),
            Some(other) => Err(EngineError::sql(format!(
                "unexpected trailing token {other:?}"
            ))),
        }
    }

    fn parse_statement(&mut self) -> EngineResult<SelectStatement> {
        // Security guard (§5 of the paper): only SELECT is executable.
        if let Some(keyword) = self.peek().and_then(Token::keyword) {
            const FORBIDDEN: &[&str] = &[
                "UPDATE", "INSERT", "DELETE", "DROP", "ALTER", "CREATE", "TRUNCATE", "REPLACE",
                "ATTACH", "PRAGMA", "GRANT", "REVOKE",
            ];
            if FORBIDDEN.contains(&keyword.as_str()) {
                return Err(EngineError::ForbiddenStatement { statement: keyword });
            }
        }
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");

        let mut items = vec![self.parse_select_item()?];
        while self.eat_token(&Token::Comma) {
            items.push(self.parse_select_item()?);
        }

        self.expect_keyword("FROM")?;
        let from = self.parse_table_ref()?;

        let mut joins = Vec::new();
        loop {
            // Accept `JOIN` and `INNER JOIN`. An outer join would have to pad
            // unmatched rows with NULLs, which the executor does not do, so
            // it is rejected rather than run as an inner join.
            if self.eat_keyword("JOIN") || {
                if self.peek_keyword("INNER") {
                    self.pos += 1;
                    self.expect_keyword("JOIN")?;
                    true
                } else {
                    false
                }
            } {
                let table = self.parse_table_ref()?;
                self.expect_keyword("ON")?;
                let condition = self.parse_expr()?;
                joins.push(JoinClause { table, condition });
            } else if let Some(kind) = OUTER_JOINS.iter().find(|kind| self.peek_keyword(kind)) {
                return Err(EngineError::sql(format!(
                    "{kind} [OUTER] JOIN is not supported: only inner joins (JOIN or INNER JOIN) run"
                )));
            } else {
                break;
            }
        }

        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.parse_expr()?);
            while self.eat_token(&Token::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }

        let having = if self.eat_keyword("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let order = if self.eat_keyword("DESC") {
                    SortOrder::Desc
                } else {
                    self.eat_keyword("ASC");
                    SortOrder::Asc
                };
                order_by.push(OrderItem { expr, order });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("LIMIT") {
            match self.next() {
                Some(Token::IntLit(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(EngineError::sql(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };

        Ok(SelectStatement {
            distinct,
            items,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_table_ref(&mut self) -> EngineResult<TableRef> {
        let name = match self.next() {
            Some(Token::Ident(name)) => name,
            other => {
                return Err(EngineError::sql(format!(
                    "expected a table name, found {other:?}"
                )))
            }
        };
        // Optional alias: `teams t` or `teams AS t`. Keywords that start the
        // next clause must not be swallowed as aliases.
        const CLAUSE_KEYWORDS: &[&str] = &[
            "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "ON", "WHERE", "GROUP", "HAVING", "ORDER",
            "LIMIT", "AS",
        ];
        let alias = if self.eat_keyword("AS") {
            match self.next() {
                Some(Token::Ident(a)) => Some(a),
                other => {
                    return Err(EngineError::sql(format!(
                        "expected an alias after AS, found {other:?}"
                    )))
                }
            }
        } else if let Some(Token::Ident(candidate)) = self.peek() {
            if CLAUSE_KEYWORDS.contains(&candidate.to_ascii_uppercase().as_str()) {
                None
            } else {
                let alias = candidate.clone();
                self.pos += 1;
                Some(alias)
            }
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn parse_select_item(&mut self) -> EngineResult<SelectItem> {
        if self.eat_token(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // Aggregate call?
        if let Some(Token::Ident(name)) = self.peek() {
            if let Some(func) = AggFunc::from_name(name) {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2; // consume name and '('
                    let expr = if self.eat_token(&Token::Star) {
                        None
                    } else {
                        Some(self.parse_expr()?)
                    };
                    self.expect_token(&Token::RParen, "')' after aggregate argument")?;
                    let alias = self.parse_optional_alias()?;
                    return Ok(SelectItem::Aggregate { func, expr, alias });
                }
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_optional_alias(&mut self) -> EngineResult<Option<String>> {
        if self.eat_keyword("AS") {
            match self.next() {
                Some(Token::Ident(a)) => Ok(Some(a)),
                Some(Token::StringLit(a)) => Ok(Some(a)),
                other => Err(EngineError::sql(format!(
                    "expected an alias after AS, found {other:?}"
                ))),
            }
        } else {
            Ok(None)
        }
    }

    // Expression grammar, lowest precedence first.
    pub(super) fn parse_expr(&mut self) -> EngineResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> EngineResult<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> EngineResult<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> EngineResult<Expr> {
        if self.eat_keyword("NOT") {
            let operand = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(operand),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> EngineResult<Expr> {
        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::Unary {
                op: if negated {
                    UnaryOp::IsNotNull
                } else {
                    UnaryOp::IsNull
                },
                operand: Box::new(left),
            });
        }

        // [NOT] IN (...) / [NOT] LIKE
        let negated = self.peek_keyword("NOT")
            && self
                .tokens
                .get(self.pos + 1)
                .map(|t| t.is_keyword("IN") || t.is_keyword("LIKE"))
                .unwrap_or(false);
        if negated {
            self.pos += 1;
        }
        if self.eat_keyword("IN") {
            self.expect_token(&Token::LParen, "'(' after IN")?;
            let mut list = vec![self.parse_expr()?];
            while self.eat_token(&Token::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect_token(&Token::RParen, "')' closing the IN list")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword("LIKE") {
            let right = self.parse_additive()?;
            let like = Expr::binary(left, BinaryOp::Like, right);
            return Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    operand: Box::new(like),
                }
            } else {
                like
            });
        }
        if negated {
            return Err(EngineError::sql("expected IN or LIKE after NOT"));
        }

        let op = match self.peek() {
            Some(Token::Eq) => Some(BinaryOp::Eq),
            Some(Token::NotEq) => Some(BinaryOp::NotEq),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::LtEq) => Some(BinaryOp::LtEq),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> EngineResult<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> EngineResult<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> EngineResult<Expr> {
        if self.eat_token(&Token::Minus) {
            let operand = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(operand),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> EngineResult<Expr> {
        match self.next() {
            Some(Token::IntLit(v)) => Ok(Expr::lit(v)),
            Some(Token::FloatLit(v)) => Ok(Expr::lit(v)),
            Some(Token::StringLit(v)) => Ok(Expr::lit(Value::str(v))),
            Some(Token::LParen) => {
                let expr = self.parse_expr()?;
                self.expect_token(&Token::RParen, "')'")?;
                Ok(expr)
            }
            Some(Token::Ident(name)) => {
                let upper = name.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => return Ok(Expr::lit(Value::Null)),
                    "TRUE" => return Ok(Expr::lit(true)),
                    "FALSE" => return Ok(Expr::lit(false)),
                    "CASE" => return self.parse_case(),
                    _ => {}
                }
                // Function call?
                if self.peek() == Some(&Token::LParen) {
                    if let Some(func) = ScalarFunc::from_name(&name) {
                        self.pos += 1; // consume '('
                        let mut args = Vec::new();
                        if self.peek() != Some(&Token::RParen) {
                            args.push(self.parse_expr()?);
                            while self.eat_token(&Token::Comma) {
                                args.push(self.parse_expr()?);
                            }
                        }
                        self.expect_token(&Token::RParen, "')' closing the argument list")?;
                        return Ok(Expr::Func { func, args });
                    }
                    if AggFunc::from_name(&name).is_some() {
                        return Err(EngineError::InvalidAggregate {
                            message: format!(
                                "aggregate function {upper} is only allowed in the SELECT list"
                            ),
                        });
                    }
                    return Err(EngineError::InvalidFunctionCall {
                        function: name,
                        message: "unknown function".into(),
                    });
                }
                // Qualified column: ident '.' ident
                if self.eat_token(&Token::Dot) {
                    match self.next() {
                        Some(Token::Ident(column)) => Ok(Expr::col(format!("{name}.{column}"))),
                        Some(Token::Star) => Err(EngineError::sql(
                            "qualified wildcards (t.*) are not supported",
                        )),
                        other => Err(EngineError::sql(format!(
                            "expected a column name after '.', found {other:?}"
                        ))),
                    }
                } else {
                    Ok(Expr::col(name))
                }
            }
            other => Err(EngineError::sql(format!(
                "unexpected token {other:?} while parsing an expression"
            ))),
        }
    }

    fn parse_case(&mut self) -> EngineResult<Expr> {
        let mut branches = Vec::new();
        let mut otherwise = None;
        loop {
            if self.eat_keyword("WHEN") {
                let cond = self.parse_expr()?;
                self.expect_keyword("THEN")?;
                let result = self.parse_expr()?;
                branches.push((cond, result));
            } else if self.eat_keyword("ELSE") {
                otherwise = Some(Box::new(self.parse_expr()?));
            } else if self.eat_keyword("END") {
                break;
            } else {
                return Err(EngineError::sql(format!(
                    "unexpected token {:?} inside CASE expression",
                    self.peek()
                )));
            }
        }
        if branches.is_empty() {
            return Err(EngineError::sql("CASE requires at least one WHEN branch"));
        }
        Ok(Expr::Case {
            branches,
            otherwise,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_figure4_aggregation_query() {
        let stmt =
            parse_select("SELECT name, MAX(points_scored) FROM final_joined_table GROUP BY name")
                .unwrap();
        assert_eq!(stmt.from.name, "final_joined_table");
        assert_eq!(stmt.items.len(), 2);
        assert!(stmt.items[1].is_aggregate());
        assert_eq!(stmt.group_by.len(), 1);
    }

    #[test]
    fn parses_the_figure4_join_query() {
        let stmt = parse_select(
            "SELECT * FROM paintings_metadata m JOIN painting_images i ON m.img_path = i.img_path",
        )
        .unwrap();
        assert_eq!(stmt.joins.len(), 1);
        assert_eq!(stmt.from.alias.as_deref(), Some("m"));
        assert_eq!(stmt.joins[0].table.alias.as_deref(), Some("i"));
        assert!(matches!(stmt.items[0], SelectItem::Wildcard));
    }

    #[test]
    fn parses_where_group_having_order_limit() {
        let stmt = parse_select(
            "SELECT conference, COUNT(*) AS n FROM teams WHERE division != 'Atlantic' \
             GROUP BY conference HAVING n > 1 ORDER BY n DESC, conference ASC LIMIT 5",
        )
        .unwrap();
        assert!(stmt.where_clause.is_some());
        assert!(stmt.having.is_some());
        assert_eq!(stmt.order_by.len(), 2);
        assert_eq!(stmt.order_by[0].order, SortOrder::Desc);
        assert_eq!(stmt.limit, Some(5));
    }

    #[test]
    fn rejects_dml_statements() {
        for sql in [
            "UPDATE teams SET points = 0",
            "DELETE FROM teams",
            "INSERT INTO teams VALUES (1)",
            "DROP TABLE teams",
        ] {
            let err = parse_select(sql).unwrap_err();
            assert!(
                matches!(err, EngineError::ForbiddenStatement { .. }),
                "expected ForbiddenStatement for {sql}, got {err:?}"
            );
        }
    }

    #[test]
    fn parse_expression_handles_conditions() {
        let expr = parse_expression("p.madonna_depicted = 'yes'").unwrap();
        assert_eq!(expr.to_string(), "(p.madonna_depicted = 'yes')");
        let expr = parse_expression("num_swords >= 2 AND century < 20").unwrap();
        assert!(expr.to_string().contains("AND"));
    }

    #[test]
    fn parse_expression_supports_functions_case_in_like() {
        assert!(parse_expression("CENTURY(inception)").is_ok());
        assert!(parse_expression("title LIKE '%Madonna%'").is_ok());
        assert!(parse_expression("title NOT LIKE '%Madonna%'").is_ok());
        assert!(parse_expression("movement IN ('Impressionism', 'Cubism')").is_ok());
        assert!(parse_expression("x NOT IN (1, 2)").is_ok());
        assert!(parse_expression("CASE WHEN year < 1500 THEN 'old' ELSE 'new' END").is_ok());
        assert!(parse_expression("inception IS NOT NULL").is_ok());
    }

    #[test]
    fn aggregates_outside_select_list_are_rejected() {
        let err = parse_expression("MAX(points) > 3").unwrap_err();
        assert!(matches!(err, EngineError::InvalidAggregate { .. }));
    }

    #[test]
    fn unknown_functions_are_reported() {
        let err = parse_expression("FOO(1)").unwrap_err();
        assert!(matches!(err, EngineError::InvalidFunctionCall { .. }));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse_select("SELECT a FROM t extra garbage here").is_err());
        assert!(parse_select("SELECT a FROM t;").is_ok());
    }

    #[test]
    fn operator_precedence_multiplication_before_addition() {
        let expr = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(expr.to_string(), "(1 + (2 * 3))");
    }

    #[test]
    fn outer_joins_are_rejected_by_name() {
        for (sql, clause) in [
            ("SELECT * FROM a LEFT JOIN b ON a.id = b.id", "LEFT"),
            (
                "SELECT * FROM a LEFT OUTER JOIN b ON a.id = b.id WHERE a.x = 1",
                "LEFT",
            ),
            ("SELECT * FROM a x RIGHT JOIN b ON x.id = b.id", "RIGHT"),
            ("SELECT * FROM a FULL OUTER JOIN b ON a.id = b.id", "FULL"),
        ] {
            let err = parse_select(sql).unwrap_err();
            assert!(
                matches!(&err, EngineError::SqlParse { message, .. }
                    if message.starts_with(&format!("{clause} [OUTER] JOIN"))),
                "{sql}: {err:?}"
            );
        }
    }
}
