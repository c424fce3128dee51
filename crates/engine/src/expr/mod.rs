//! Scalar expressions and their evaluation.
//!
//! Expressions are produced by the SQL front-end (`sql` module) and by the
//! transform-DSL of the Python-UDF substitute in `caesura-modal`. The engine
//! evaluates them column at a time, via [`Expr::evaluate_batch`] and
//! [`Expr::selection_vector`]. The tree is walked once per batch over the
//! input columns in place: literals stay scalars broadcast across the batch,
//! column references are `Arc` bumps, and every other node runs a column
//! kernel of the private `kernels` module. `CASE` evaluates each condition
//! only over the rows still undecided and each result only over the rows
//! that took its branch; `IN` evaluates item k only over the rows whose
//! needle is non-NULL and not yet matched. Both reach a subtree over a row
//! subset in one way: the columns it references are gathered.
//!
//! Every per-row rule is one function of borrowed cells (`CellRef`):
//! `eval_binary` for the binary operators, and a `CellFn` for each unary
//! operator and scalar function. A function with one result type returns
//! that type (a string function appends to a buffer), which the kernel
//! writes into its output column as it stands. The kernels run these rules
//! wherever their typed loops do not reach, and the row evaluator
//! ([`Expr::evaluate`], [`Expr::evaluate_at`]) runs nothing else, wrapping
//! each result into a [`Value`]; it is kept as the property tests' oracle.
//!
//! # Errors
//!
//! * Names resolve at bind time: an unknown column fails at any row count,
//!   as SQLite's prepare does, wherever it sits in the tree, and ahead of
//!   any value error. Every entry point runs [`Expr::bind`] before it
//!   evaluates anything.
//! * Value errors (division by zero, type mismatches, a wrong argument
//!   count) are per row, so zero rows raise none. A subtree without a column
//!   reference is folded to one scalar in one place, and only when at least
//!   one row exists.
//! * A tree fails exactly when the row evaluator fails on some row or its
//!   bind step fails.
//! * When rows fail in different ways, the error reported is the first one
//!   in kernel order: operands before their operator, a kernel's rows in row
//!   order, `CASE` branches and `IN` items in their written order.

mod kernels;

use crate::column::{Column, ColumnBuilder};
use crate::error::{EngineError, EngineResult};
use crate::schema::Schema;
use crate::selection::Selection;
use crate::value::{CellRef, DataType, Value};
use std::fmt;
use std::sync::Arc;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// Addition (numeric) / concatenation is handled by the `concat` function.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (floating point unless both operands are ints and divide evenly).
    Div,
    /// Modulo.
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    NotEq,
    /// Less than.
    Lt,
    /// Less than or equal.
    LtEq,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    GtEq,
    /// Logical AND (three-valued).
    And,
    /// Logical OR (three-valued).
    Or,
    /// SQL LIKE with `%` and `_` wildcards, case-insensitive.
    Like,
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Like => "LIKE",
        };
        f.write_str(text)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT.
    Not,
    /// IS NULL test.
    IsNull,
    /// IS NOT NULL test.
    IsNotNull,
}

/// Built-in scalar functions available to SQL and the transform DSL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `LOWER(s)`.
    Lower,
    /// `UPPER(s)`.
    Upper,
    /// `LENGTH(s)` — number of characters.
    Length,
    /// `SUBSTR(s, start, len)` — 1-based like SQLite.
    Substr,
    /// `CAST_INT(x)` — best-effort conversion to integer.
    CastInt,
    /// `CAST_FLOAT(x)` — best-effort conversion to float.
    CastFloat,
    /// `CAST_STR(x)` — render as string.
    CastStr,
    /// `CONCAT(a, b, ...)`.
    Concat,
    /// `ABS(x)`.
    Abs,
    /// `ROUND(x)` or `ROUND(x, digits)`.
    Round,
    /// `COALESCE(a, b, ...)` — first non-null argument.
    Coalesce,
    /// `EXTRACT_YEAR(s)` — first 4-digit year found in a string or date.
    ExtractYear,
    /// `CENTURY(x)` — century of a year, date, or date-like string.
    Century,
    /// `TRIM(s)`.
    Trim,
    /// `REPLACE(s, from, to)`.
    Replace,
    /// `MIN2(a, b)` — scalar minimum.
    Min2,
    /// `MAX2(a, b)` — scalar maximum.
    Max2,
}

impl ScalarFunc {
    /// Look a function up by its SQL name.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "LOWER" => ScalarFunc::Lower,
            "UPPER" => ScalarFunc::Upper,
            "LENGTH" | "LEN" => ScalarFunc::Length,
            "SUBSTR" | "SUBSTRING" => ScalarFunc::Substr,
            "CAST_INT" | "TOINT" | "INT" => ScalarFunc::CastInt,
            "CAST_FLOAT" | "TOFLOAT" => ScalarFunc::CastFloat,
            "CAST_STR" | "TOSTR" | "STR" => ScalarFunc::CastStr,
            "CONCAT" => ScalarFunc::Concat,
            "ABS" => ScalarFunc::Abs,
            "ROUND" => ScalarFunc::Round,
            "COALESCE" | "IFNULL" => ScalarFunc::Coalesce,
            "EXTRACT_YEAR" | "YEAR" => ScalarFunc::ExtractYear,
            "CENTURY" => ScalarFunc::Century,
            "TRIM" => ScalarFunc::Trim,
            "REPLACE" => ScalarFunc::Replace,
            "MIN2" => ScalarFunc::Min2,
            "MAX2" => ScalarFunc::Max2,
            _ => return None,
        })
    }

    /// SQL-facing name.
    pub fn name(&self) -> &'static str {
        match self {
            ScalarFunc::Lower => "LOWER",
            ScalarFunc::Upper => "UPPER",
            ScalarFunc::Length => "LENGTH",
            ScalarFunc::Substr => "SUBSTR",
            ScalarFunc::CastInt => "CAST_INT",
            ScalarFunc::CastFloat => "CAST_FLOAT",
            ScalarFunc::CastStr => "CAST_STR",
            ScalarFunc::Concat => "CONCAT",
            ScalarFunc::Abs => "ABS",
            ScalarFunc::Round => "ROUND",
            ScalarFunc::Coalesce => "COALESCE",
            ScalarFunc::ExtractYear => "EXTRACT_YEAR",
            ScalarFunc::Century => "CENTURY",
            ScalarFunc::Trim => "TRIM",
            ScalarFunc::Replace => "REPLACE",
            ScalarFunc::Min2 => "MIN2",
            ScalarFunc::Max2 => "MAX2",
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Literal(Value),
    /// A column reference, resolved lazily against the input schema.
    Column(String),
    /// A binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// A scalar function call.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// The needle.
        expr: Box<Expr>,
        /// The list of candidate expressions.
        list: Vec<Expr>,
        /// Whether the test is negated (`NOT IN`).
        negated: bool,
    },
    /// `CASE WHEN cond THEN value ... ELSE value END`.
    Case {
        /// `(condition, result)` branches in order.
        branches: Vec<(Expr, Expr)>,
        /// Optional ELSE result.
        otherwise: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Convenience constructor for column references.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Convenience constructor for literals.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    /// Convenience constructor for binary expressions.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::Eq, other)
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::And, other)
    }

    /// All column names referenced anywhere in the expression.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        self.any_column(&mut |name| {
            if !out.contains(name) {
                out.push(name.clone());
            }
            false
        });
    }

    /// Whether the expression references no column, so it has one value
    /// for every row.
    fn is_constant(&self) -> bool {
        !self.any_column(&mut |_| true)
    }

    /// Whether `hit` holds for a column reference, visited depth first in
    /// written order; the walk stops at the first hit.
    fn any_column(&self, hit: &mut impl FnMut(&String) -> bool) -> bool {
        match self {
            Expr::Literal(_) => false,
            Expr::Column(name) => hit(name),
            Expr::Binary { left, right, .. } => left.any_column(hit) || right.any_column(hit),
            Expr::Unary { operand, .. } => operand.any_column(hit),
            Expr::Func { args, .. } => args.iter().any(|arg| arg.any_column(hit)),
            Expr::InList { expr, list, .. } => {
                expr.any_column(hit) || list.iter().any(|item| item.any_column(hit))
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                branches
                    .iter()
                    .any(|(cond, result)| cond.any_column(hit) || result.any_column(hit))
                    || otherwise.as_ref().is_some_and(|e| e.any_column(hit))
            }
        }
    }

    /// Resolve every column name the expression references against
    /// `schema`, in written order: the bind step. Fails with the first name
    /// that does not resolve, wherever it sits — an untaken `CASE` branch or
    /// an `IN` item no row reaches included.
    pub fn bind(&self, schema: &Schema) -> EngineResult<()> {
        let mut unresolved = None;
        self.any_column(&mut |name| {
            unresolved = schema.resolve(name).err();
            unresolved.is_some()
        });
        unresolved.map_or(Ok(()), Err)
    }

    /// Evaluate the expression against one row (a slice of cell values in
    /// schema order), after [`Expr::bind`].
    pub fn evaluate(&self, schema: &Schema, row: &[Value]) -> EngineResult<Value> {
        self.bind(schema)?;
        self.evaluate_row(schema, &|idx| row[idx].clone())
    }

    /// Evaluate the expression as a boolean predicate (NULL counts as false).
    pub fn evaluate_predicate(&self, schema: &Schema, row: &[Value]) -> EngineResult<bool> {
        let value = self.evaluate(schema, row)?;
        Ok(value.as_bool().unwrap_or(false))
    }

    /// Evaluate the expression for every row at once, producing one column,
    /// after [`Expr::bind`].
    ///
    /// `columns` are the input table's columns in schema order and `num_rows`
    /// its row count. A plain column reference returns the input column
    /// itself (an `Arc` bump).
    pub fn evaluate_batch(
        &self,
        schema: &Schema,
        columns: &[Arc<Column>],
        num_rows: usize,
    ) -> EngineResult<Arc<Column>> {
        self.bind(schema)?;
        Ok(self
            .evaluate_batch_inner(schema, columns, num_rows)?
            .materialize(num_rows))
    }

    /// Evaluate the expression as a predicate over all rows, after
    /// [`Expr::bind`], and return the selection vector of row indices where
    /// it is true (NULL = not selected).
    pub fn selection_vector(
        &self,
        schema: &Schema,
        columns: &[Arc<Column>],
        num_rows: usize,
    ) -> EngineResult<Vec<usize>> {
        self.bind(schema)?;
        let holds = self.evaluate_batch_inner(schema, columns, num_rows)?;
        Ok(holds.selected_rows(num_rows))
    }

    /// Evaluate the expression at one row, reading cells directly from the
    /// columns, after [`Expr::bind`]: the row evaluator the property tests
    /// check the batch path against.
    pub fn evaluate_at(
        &self,
        schema: &Schema,
        columns: &[Arc<Column>],
        i: usize,
    ) -> EngineResult<Value> {
        self.bind(schema)?;
        self.evaluate_row(schema, &|idx| columns[idx].get(i))
    }

    /// The one row evaluator behind [`Expr::evaluate`] and
    /// [`Expr::evaluate_at`], over a bound tree: `cell(idx)` reads the row's
    /// value of the column at schema position `idx`.
    fn evaluate_row(&self, schema: &Schema, cell: &impl Fn(usize) -> Value) -> EngineResult<Value> {
        match self {
            Expr::Literal(value) => Ok(value.clone()),
            Expr::Column(name) => {
                let idx = schema.resolve(name)?;
                Ok(cell(idx))
            }
            Expr::Binary { left, op, right } => {
                let lhs = left.evaluate_row(schema, cell)?;
                let rhs = right.evaluate_row(schema, cell)?;
                eval_binary(lhs.cell(), *op, rhs.cell())
            }
            Expr::Unary { op, operand } => {
                let value = operand.evaluate_row(schema, cell)?;
                op.cell_fn().call(&[value.cell()])
            }
            Expr::Func { func, args } => {
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(arg.evaluate_row(schema, cell)?);
                }
                eval_func(*func, &values)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = expr.evaluate_row(schema, cell)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for item in list {
                    let candidate = item.evaluate_row(schema, cell)?;
                    if needle.sql_eq(&candidate) == Some(true) {
                        found = true;
                        break;
                    }
                }
                Ok(Value::Bool(found != *negated))
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (cond, result) in branches {
                    if cond.evaluate_row(schema, cell)?.as_bool() == Some(true) {
                        return result.evaluate_row(schema, cell);
                    }
                }
                match otherwise {
                    Some(e) => e.evaluate_row(schema, cell),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    fn evaluate_batch_inner(
        &self,
        schema: &Schema,
        columns: &[Arc<Column>],
        num_rows: usize,
    ) -> EngineResult<Batch> {
        // The one constant fold: a subtree without a column reference has
        // one value for every row, so it is computed over one row and
        // broadcast. Over zero rows it is not computed at all, and its
        // errors stay unraised.
        if num_rows != 1 && !matches!(self, Expr::Literal(_)) && self.is_constant() {
            return Ok(match num_rows {
                0 => Batch::column(Column::Null(0)),
                _ => Batch::Scalar(self.evaluate_batch(schema, columns, 1)?.get(0)),
            });
        }
        match self {
            Expr::Literal(value) => Ok(Batch::Scalar(value.clone())),
            Expr::Column(name) => {
                let idx = schema.resolve(name)?;
                Ok(Batch::Col(Arc::clone(&columns[idx])))
            }
            Expr::Binary { left, op, right } => {
                let lhs = left.evaluate_batch_inner(schema, columns, num_rows)?;
                let rhs = right.evaluate_batch_inner(schema, columns, num_rows)?;
                kernels::eval_binary_view(&lhs.view(), *op, &rhs.view(), num_rows)
                    .map(Batch::column)
            }
            Expr::Unary { op, operand } => {
                let operand = operand.evaluate_batch_inner(schema, columns, num_rows)?;
                kernels::eval_cell_fn(Ok(op.cell_fn()), &[operand.view()], num_rows)
                    .map(Batch::column)
            }
            Expr::Func { func, args } => {
                let mut batches = Vec::with_capacity(args.len());
                for arg in args {
                    batches.push(arg.evaluate_batch_inner(schema, columns, num_rows)?);
                }
                let views: Vec<_> = batches.iter().map(Batch::view).collect();
                let cell_fn = func
                    .cell_fn(args.len())
                    .ok_or_else(|| func.arity_error(args.len()));
                kernels::eval_cell_fn(cell_fn, &views, num_rows).map(Batch::column)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = expr.evaluate_batch_inner(schema, columns, num_rows)?;
                // Per row: `None` for a NULL needle, else whether an item
                // matched it so far; `pending` are the rows still unmatched.
                let needle_view = needle.view();
                let mut found: Vec<Option<bool>> = (0..num_rows)
                    .map(|i| (!needle_view.cell(i).is_null()).then_some(false))
                    .collect();
                let mut pending = rows_where(num_rows, |i| found[i].is_some());
                for item in list {
                    let candidates = item.evaluate_over(schema, columns, &pending, num_rows)?;
                    let needles = needle.gather(&pending, num_rows);
                    let equal = kernels::eval_binary_view(
                        &needles.view(),
                        BinaryOp::Eq,
                        &candidates.view(),
                        pending.len(),
                    )?;
                    let matched = Batch::column(equal).selected_rows(pending.len());
                    for row in take_positions(&mut pending, matched) {
                        found[row] = Some(true);
                    }
                }
                let mut out = ColumnBuilder::with_capacity(DataType::Null, num_rows);
                for row in found {
                    out.push(Value::from(row.map(|matched| matched != *negated)));
                }
                Ok(Batch::column(out.finish()))
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                // Per branch, the rows that took it and its result over them.
                let mut parts = Vec::with_capacity(branches.len() + 1);
                let mut undecided: Vec<usize> = (0..num_rows).collect();
                for (cond, result) in branches {
                    let holds = cond.evaluate_over(schema, columns, &undecided, num_rows)?;
                    let took = holds.selected_rows(undecided.len());
                    let took = take_positions(&mut undecided, took);
                    let value = result.evaluate_over(schema, columns, &took, num_rows)?;
                    parts.push((took, value));
                }
                let value = match otherwise {
                    Some(e) => e.evaluate_over(schema, columns, &undecided, num_rows)?,
                    None => Batch::Scalar(Value::Null),
                };
                parts.push((undecided, value));
                Ok(Batch::column(kernels::scatter(&parts, num_rows)))
            }
        }
    }

    /// Evaluate over the rows `rows` (ascending) of the `num_rows` input rows
    /// only: the columns the expression references are gathered, so no other
    /// row reaches it. How `CASE` and `IN` reach their branches and items.
    fn evaluate_over(
        &self,
        schema: &Schema,
        columns: &[Arc<Column>],
        rows: &[usize],
        num_rows: usize,
    ) -> EngineResult<Batch> {
        let selection = Selection::new(rows, num_rows);
        let mut gathered = columns.to_vec();
        for name in self.referenced_columns() {
            let idx = schema.resolve(&name)?;
            gathered[idx] = selection.gather(&columns[idx]);
        }
        self.evaluate_batch_inner(schema, &gathered, rows.len())
    }

    /// Best-effort static output type of the expression against a schema.
    pub fn output_type(&self, schema: &Schema) -> DataType {
        match self {
            Expr::Literal(v) => v.data_type(),
            Expr::Column(name) => schema
                .resolve(name)
                .ok()
                .and_then(|idx| schema.field(idx).map(|f| f.data_type))
                .unwrap_or(DataType::Null),
            Expr::Binary { left, op, right } => match op {
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Mod => {
                    let lt = left.output_type(schema);
                    let rt = right.output_type(schema);
                    if lt == DataType::Float || rt == DataType::Float {
                        DataType::Float
                    } else {
                        DataType::Int
                    }
                }
                BinaryOp::Div => DataType::Float,
                _ => DataType::Bool,
            },
            Expr::Unary { op, operand } => match op {
                UnaryOp::Neg => operand.output_type(schema),
                _ => DataType::Bool,
            },
            Expr::Func { func, args } => match func {
                ScalarFunc::Length
                | ScalarFunc::CastInt
                | ScalarFunc::ExtractYear
                | ScalarFunc::Century => DataType::Int,
                ScalarFunc::CastFloat | ScalarFunc::Round => DataType::Float,
                ScalarFunc::Abs | ScalarFunc::Coalesce | ScalarFunc::Min2 | ScalarFunc::Max2 => {
                    args.first()
                        .map(|a| a.output_type(schema))
                        .unwrap_or(DataType::Null)
                }
                _ => DataType::Str,
            },
            Expr::InList { .. } => DataType::Bool,
            Expr::Case {
                branches,
                otherwise,
            } => branches
                .first()
                .map(|(_, r)| r.output_type(schema))
                .or_else(|| otherwise.as_ref().map(|e| e.output_type(schema)))
                .unwrap_or(DataType::Null),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Column(name) => f.write_str(name),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Unary { op, operand } => match op {
                UnaryOp::Neg => write!(f, "(-{operand})"),
                UnaryOp::Not => write!(f, "(NOT {operand})"),
                UnaryOp::IsNull => write!(f, "({operand} IS NULL)"),
                UnaryOp::IsNotNull => write!(f, "({operand} IS NOT NULL)"),
            },
            Expr::Func { func, args } => {
                let rendered: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                write!(f, "{}({})", func.name(), rendered.join(", "))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let rendered: Vec<String> = list.iter().map(|a| a.to_string()).collect();
                let keyword = if *negated { "NOT IN" } else { "IN" };
                write!(f, "({expr} {keyword} ({}))", rendered.join(", "))
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                write!(f, "CASE")?;
                for (cond, result) in branches {
                    write!(f, " WHEN {cond} THEN {result}")?;
                }
                if let Some(e) = otherwise {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
        }
    }
}

/// The result of evaluating a sub-expression over a batch of rows: either a
/// whole column or a scalar broadcast across every row (literals and
/// constant sub-trees). Keeping scalars unexpanded lets the binary
/// kernels run column-vs-constant loops without allocating literal columns.
enum Batch {
    /// A per-row column.
    Col(Arc<Column>),
    /// One value standing for every row.
    Scalar(Value),
}

impl Batch {
    fn column(column: Column) -> Batch {
        Batch::Col(Arc::new(column))
    }

    fn view(&self) -> kernels::ValuesView<'_> {
        match self {
            Batch::Col(col) => kernels::ValuesView::Col(col),
            Batch::Scalar(v) => kernels::ValuesView::Scalar(v),
        }
    }

    /// The batch's rows at `rows` (ascending) of its `num_rows`.
    fn gather(&self, rows: &[usize], num_rows: usize) -> Batch {
        match self {
            Batch::Col(col) => Batch::Col(Selection::new(rows, num_rows).gather(col)),
            Batch::Scalar(v) => Batch::Scalar(v.clone()),
        }
    }

    /// The rows of a predicate's result that are true (NULL and false are
    /// not selected).
    fn selected_rows(&self, num_rows: usize) -> Vec<usize> {
        let col = match self {
            Batch::Scalar(v) if v.as_bool() == Some(true) => return (0..num_rows).collect(),
            Batch::Scalar(_) => return Vec::new(),
            Batch::Col(col) => col,
        };
        match col.as_bools() {
            Some((data, validity)) => rows_where(num_rows, |i| data[i] && validity.is_valid(i)),
            None => rows_where(num_rows, |i| col.cell(i).as_bool() == Some(true)),
        }
    }

    fn materialize(self, num_rows: usize) -> Arc<Column> {
        match self {
            Batch::Col(col) => col,
            Batch::Scalar(v) => {
                let mut out = ColumnBuilder::with_capacity(DataType::Null, num_rows);
                for _ in 0..num_rows {
                    out.push(v.clone());
                }
                Arc::new(out.finish())
            }
        }
    }
}

/// The rows of `0..num_rows` where `holds`, counted first so the vector is
/// allocated once, at its size.
fn rows_where(num_rows: usize, holds: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut rows = Vec::with_capacity((0..num_rows).filter(|&i| holds(i)).count());
    rows.extend((0..num_rows).filter(|&i| holds(i)));
    rows
}

/// Move the entries of `rows` at the ascending `positions` out of it, and
/// return them in order.
fn take_positions(rows: &mut Vec<usize>, mut positions: Vec<usize>) -> Vec<usize> {
    for at in &mut positions {
        *at = rows[*at];
    }
    let mut taken = positions.iter().peekable();
    rows.retain(|row| taken.next_if_eq(&row).is_none());
    positions
}

#[inline]
fn int_cmp_result(op: BinaryOp, ordering: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinaryOp::Lt => ordering == Less,
        BinaryOp::LtEq => ordering != Greater,
        BinaryOp::Gt => ordering == Greater,
        BinaryOp::GtEq => ordering != Less,
        BinaryOp::Eq => ordering == Equal,
        BinaryOp::NotEq => ordering != Equal,
        _ => unreachable!("not a comparison"),
    }
}

/// The operands of an arithmetic operator as floats, and whether both are
/// ints; a non-numeric operand is a type error.
fn numeric_pair(
    lhs: CellRef<'_>,
    op: BinaryOp,
    rhs: CellRef<'_>,
) -> EngineResult<(f64, f64, bool)> {
    let both_int = matches!((lhs, rhs), (CellRef::Int(_), CellRef::Int(_)));
    let as_float = |v: CellRef<'_>| {
        v.as_float().ok_or_else(|| {
            let found = v.data_type().prompt_name();
            EngineError::type_mismatch(format!("operator '{op}'"), "a numeric value", found)
        })
    };
    Ok((as_float(lhs)?, as_float(rhs)?, both_int))
}

/// The per-row rule of a binary operator, over one row's two operand cells.
/// The row evaluator runs it, and so does every kernel wherever its typed
/// loops do not reach, so each operator's semantics are written once.
fn eval_binary(lhs: CellRef<'_>, op: BinaryOp, rhs: CellRef<'_>) -> EngineResult<Value> {
    use BinaryOp::*;
    // Three-valued logic for AND/OR must be handled before the NULL shortcut.
    match op {
        And => {
            return Ok(match (lhs.as_bool(), rhs.as_bool()) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            });
        }
        Or => {
            return Ok(match (lhs.as_bool(), rhs.as_bool()) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            });
        }
        _ => {}
    }
    if lhs.is_null() || rhs.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Add | Sub | Mul | Mod => {
            let (l, r, both_int) = numeric_pair(lhs, op, rhs)?;
            let result = match op {
                Add => l + r,
                Sub => l - r,
                Mul => l * r,
                Mod => {
                    if r == 0.0 {
                        return Err(EngineError::DivisionByZero);
                    }
                    l % r
                }
                _ => unreachable!(),
            };
            Ok(if both_int {
                Value::Int(result as i64)
            } else {
                Value::Float(result)
            })
        }
        Div => {
            let (l, r, both_int) = numeric_pair(lhs, op, rhs)?;
            if r == 0.0 {
                return Err(EngineError::DivisionByZero);
            }
            let result = l / r;
            Ok(if both_int && result.fract() == 0.0 {
                Value::Int(result as i64)
            } else {
                Value::Float(result)
            })
        }
        Eq => Ok(Value::from(lhs.sql_eq(rhs))),
        NotEq => Ok(Value::from(lhs.sql_eq(rhs).map(|b| !b))),
        Lt | LtEq | Gt | GtEq => {
            // Strings compare lexicographically, numbers numerically; mixing
            // a string with a number is a type error the planner should see.
            let comparable = (lhs.data_type().is_numeric() && rhs.data_type().is_numeric())
                || lhs.data_type() == rhs.data_type();
            if !comparable {
                return Err(EngineError::type_mismatch(
                    format!("comparison '{op}'"),
                    lhs.data_type().prompt_name(),
                    rhs.data_type().prompt_name(),
                ));
            }
            Ok(Value::Bool(int_cmp_result(op, lhs.total_cmp(rhs))))
        }
        Like => {
            let haystack = lhs.as_str().ok_or_else(|| {
                EngineError::type_mismatch("LIKE", "str", lhs.data_type().prompt_name())
            })?;
            let pattern = rhs.as_str().ok_or_else(|| {
                EngineError::type_mismatch("LIKE pattern", "str", rhs.data_type().prompt_name())
            })?;
            Ok(Value::Bool(like_match(haystack, pattern)))
        }
        And | Or => unreachable!("handled above"),
    }
}

/// Case-insensitive SQL LIKE matching with `%` (any run) and `_` (single char).
pub fn like_match(haystack: &str, pattern: &str) -> bool {
    LikePattern::new(pattern).matches(haystack)
}

/// A LIKE pattern lowercased once, to match many haystacks with; each
/// haystack is lowercased into a buffer the matches reuse. An ASCII haystack
/// is lowercased byte by byte, allocating nothing; any other goes through
/// `str::to_lowercase`, whose context rules (a word-final `Σ` becomes `ς`)
/// a per-character mapping would miss.
struct LikePattern {
    pattern: Vec<char>,
    haystack: Vec<char>,
}

impl LikePattern {
    fn new(pattern: &str) -> LikePattern {
        LikePattern {
            pattern: pattern.to_lowercase().chars().collect(),
            haystack: Vec::new(),
        }
    }

    /// Whether `haystack` matches, case-insensitively.
    ///
    /// The two-pointer wildcard match: a mismatch after a `%` resumes the
    /// pattern right after that `%`, one haystack character further on. Only
    /// the last `%` is ever resumed, since any earlier one can absorb what a
    /// retry of it would, so the match takes O(haystack × pattern) steps
    /// whatever the number of `%`s.
    fn matches(&mut self, haystack: &str) -> bool {
        self.haystack.clear();
        if haystack.is_ascii() {
            let lower = haystack.bytes().map(|b| char::from(b.to_ascii_lowercase()));
            self.haystack.extend(lower);
        } else {
            self.haystack.extend(haystack.to_lowercase().chars());
        }
        let (h, p) = (&self.haystack, &self.pattern);
        let (mut i, mut j) = (0, 0);
        // The position after the last `%` seen, and the haystack position
        // its run ends at so far.
        let mut resume: Option<(usize, usize)> = None;
        while i < h.len() {
            if j < p.len() && p[j] == '%' {
                j += 1;
                resume = Some((j, i));
            } else if j < p.len() && (p[j] == '_' || p[j] == h[i]) {
                i += 1;
                j += 1;
            } else if let Some((after, end)) = resume {
                // Let the `%` absorb one more character and retry from there.
                resume = Some((after, end + 1));
                i = end + 1;
                j = after;
            } else {
                return false;
            }
        }
        p[j..].iter().all(|&c| c == '%')
    }
}

/// Extract the first year written in a string: the first maximal run of
/// exactly four ASCII digits whose value lies in `500..=2100`.
///
/// The scan reads bytes, not characters. An ASCII digit is one byte in
/// UTF-8, and every byte of a multi-byte character lies outside the ASCII
/// range, so the maximal byte runs of ASCII digits are exactly the maximal
/// character runs. Non-ASCII digits (`٢٠٢٠`, `２０２０`) neither count as
/// digits nor extend a run.
pub fn extract_year_from_text(text: &str) -> Option<i32> {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i - start == 4 {
            let year = bytes[start..i]
                .iter()
                .fold(0, |year, &digit| year * 10 + i32::from(digit - b'0'));
            if (500..=2100).contains(&year) {
                return Some(year);
            }
        }
    }
    None
}

/// Apply a scalar function to already-computed argument values: the row
/// evaluator's entry to the functions' [`CellFn`]s.
fn eval_func(func: ScalarFunc, args: &[Value]) -> EngineResult<Value> {
    let cells: Vec<CellRef<'_>> = args.iter().map(Value::cell).collect();
    func.cell_fn(cells.len())
        .ok_or_else(|| func.arity_error(cells.len()))?
        .call(&cells)
}

/// A unary operator, or a scalar function resolved for one argument count:
/// the code computing one row's result from that row's argument cells. The
/// row evaluator and the column kernel (`kernels::eval_cell_fn`) both run
/// it, so each operator's and function's semantics are written once; the
/// kernel resolves it once per batch and calls it per row.
///
/// A function whose result has one type declares it: its code returns the
/// typed result (`None` for NULL), which the kernel writes straight into
/// that column's vector and bitmap and the row evaluator wraps into a
/// [`Value`]. A string result is appended to a buffer the caller owns: the
/// kernel's column buffer, or the row evaluator's `String`.
#[derive(Clone, Copy)]
enum CellFn {
    /// An operator whose result type follows its operand's (unary `-`,
    /// `ABS`), or that can fail (`NOT`).
    Unary(fn(CellRef<'_>) -> EngineResult<Value>),
    /// A function whose result is an int.
    Int(fn(&[CellRef<'_>]) -> Option<i64>),
    /// A function whose result is a float.
    Float(fn(&[CellRef<'_>]) -> Option<f64>),
    /// A function whose result is a bool.
    Bool(fn(&[CellRef<'_>]) -> Option<bool>),
    /// A function whose result is a string: appends it to the buffer and
    /// returns `true`, or returns `false` for NULL, having appended nothing.
    Str(fn(&[CellRef<'_>], &mut String) -> bool),
    /// A function whose result is one of its argument cells as it stands:
    /// the position of that argument, or `None` for NULL. The kernel copies
    /// the chosen cell into its output without making a value of it.
    Pick(fn(&[CellRef<'_>]) -> Option<usize>),
}

impl CellFn {
    /// Run on one row's cells, as many as the function was resolved for.
    fn call(self, args: &[CellRef<'_>]) -> EngineResult<Value> {
        Ok(match self {
            CellFn::Unary(f) => return f(args[0]),
            CellFn::Int(f) => Value::from(f(args)),
            CellFn::Float(f) => Value::from(f(args)),
            CellFn::Bool(f) => Value::from(f(args)),
            CellFn::Str(f) => {
                let mut out = String::new();
                let valid = f(args, &mut out);
                Value::from(valid.then_some(out))
            }
            CellFn::Pick(f) => f(args).map_or(Value::Null, |at| args[at].to_value()),
        })
    }
}

impl UnaryOp {
    /// The operator's code.
    fn cell_fn(self) -> CellFn {
        match self {
            UnaryOp::Neg => CellFn::Unary(cell_fns::neg),
            UnaryOp::Not => CellFn::Unary(cell_fns::not),
            UnaryOp::IsNull => CellFn::Bool(cell_fns::is_null),
            UnaryOp::IsNotNull => CellFn::Bool(cell_fns::is_not_null),
        }
    }
}

impl ScalarFunc {
    /// The function's code for `arity` arguments, or `None` when it takes
    /// another count.
    fn cell_fn(self, arity: usize) -> Option<CellFn> {
        use CellFn::*;
        Some(match (self, arity) {
            (ScalarFunc::Lower, 1) => Str(cell_fns::lower),
            (ScalarFunc::Upper, 1) => Str(cell_fns::upper),
            (ScalarFunc::Length, 1) => Int(cell_fns::length),
            (ScalarFunc::Substr, 2) => Str(cell_fns::substr_from),
            (ScalarFunc::Substr, 3) => Str(cell_fns::substr),
            (ScalarFunc::CastInt, 1) => Int(cell_fns::cast_int),
            (ScalarFunc::CastFloat, 1) => Float(cell_fns::cast_float),
            (ScalarFunc::CastStr, 1) => Str(cell_fns::cast_str),
            (ScalarFunc::Concat, _) => Str(cell_fns::concat),
            (ScalarFunc::Abs, 1) => Unary(cell_fns::abs),
            (ScalarFunc::Round, 1) => Float(cell_fns::round),
            (ScalarFunc::Round, 2) => Float(cell_fns::round_to),
            (ScalarFunc::Coalesce, _) => Pick(cell_fns::coalesce),
            (ScalarFunc::ExtractYear, 1) => Int(cell_fns::extract_year),
            (ScalarFunc::Century, 1) => Int(cell_fns::century),
            (ScalarFunc::Trim, 1) => Str(cell_fns::trim),
            (ScalarFunc::Replace, 3) => Str(cell_fns::replace),
            (ScalarFunc::Min2, 2) => Pick(cell_fns::min2),
            (ScalarFunc::Max2, 2) => Pick(cell_fns::max2),
            _ => return None,
        })
    }

    /// The error of a call with `got` arguments, which [`Self::cell_fn`]
    /// has no code for.
    fn arity_error(self, got: usize) -> EngineError {
        let expected = match self {
            ScalarFunc::Substr => "2 or 3",
            ScalarFunc::Round => "1 or 2",
            ScalarFunc::Replace => "3",
            ScalarFunc::Min2 | ScalarFunc::Max2 => "2",
            _ => "1",
        };
        EngineError::InvalidFunctionCall {
            function: self.name().to_string(),
            message: format!("expected {expected} argument(s), got {got}"),
        }
    }
}

/// One function per [`UnaryOp`], and per [`ScalarFunc`] and argument
/// count, computing a row's result from its borrowed argument cells; a
/// typed function reads its arguments from a slice of the count it was
/// resolved for.
mod cell_fns {
    use super::extract_year_from_text;
    use crate::error::{EngineError, EngineResult};
    use crate::value::{CellRef, DateValue, Value};
    use std::cmp::Ordering;
    use std::fmt::Write;

    /// Append `write`'s rendering of a string-like cell to `out`; `false`
    /// (NULL) for any other cell.
    fn of_str(v: CellRef<'_>, out: &mut String, write: impl FnOnce(&str, &mut String)) -> bool {
        v.as_str().map(|s| write(s, out)).is_some()
    }

    /// `str::to_lowercase`, appended: an ASCII string is copied and
    /// lowercased in place; any other goes through `to_lowercase`, whose
    /// context rules (a word-final `Σ` becomes `ς`) a per-character mapping
    /// would miss.
    pub(super) fn lower(args: &[CellRef<'_>], out: &mut String) -> bool {
        of_str(args[0], out, |s, out| {
            if s.is_ascii() {
                let start = out.len();
                out.push_str(s);
                out[start..].make_ascii_lowercase();
            } else {
                out.push_str(&s.to_lowercase());
            }
        })
    }

    /// `str::to_uppercase`, appended: an ASCII string is copied and
    /// uppercased in place; any other is mapped a character at a time, as
    /// `to_uppercase` maps it.
    pub(super) fn upper(args: &[CellRef<'_>], out: &mut String) -> bool {
        of_str(args[0], out, |s, out| {
            if s.is_ascii() {
                let start = out.len();
                out.push_str(s);
                out[start..].make_ascii_uppercase();
            } else {
                out.extend(s.chars().flat_map(char::to_uppercase));
            }
        })
    }

    pub(super) fn length(args: &[CellRef<'_>]) -> Option<i64> {
        args[0].as_str().map(|s| s.chars().count() as i64)
    }

    pub(super) fn trim(args: &[CellRef<'_>], out: &mut String) -> bool {
        of_str(args[0], out, |s, out| out.push_str(s.trim()))
    }

    /// The characters of `s` from the 1-based position `start` on.
    fn chars_from<'s>(s: &'s str, start: CellRef<'_>) -> std::iter::Skip<std::str::Chars<'s>> {
        s.chars()
            .skip(start.as_int().unwrap_or(1).max(1) as usize - 1)
    }

    pub(super) fn substr_from(args: &[CellRef<'_>], out: &mut String) -> bool {
        of_str(args[0], out, |s, out| out.extend(chars_from(s, args[1])))
    }

    pub(super) fn substr(args: &[CellRef<'_>], out: &mut String) -> bool {
        let len = args[2].as_int().unwrap_or(0).max(0) as usize;
        of_str(args[0], out, |s, out| {
            out.extend(chars_from(s, args[1]).take(len))
        })
    }

    pub(super) fn cast_int(args: &[CellRef<'_>]) -> Option<i64> {
        match args[0] {
            CellRef::Int(i) => Some(i),
            CellRef::Float(f) => Some(f as i64),
            CellRef::Bool(b) => Some(i64::from(b)),
            CellRef::Str(s) => {
                let trimmed = s.trim();
                match trimmed.parse::<i64>() {
                    Ok(i) => Some(i),
                    Err(_) => match trimmed.parse::<f64>() {
                        Ok(f) => Some(f as i64),
                        Err(_) => extract_year_from_text(trimmed).map(i64::from),
                    },
                }
            }
            CellRef::Date(d) => Some(i64::from(d.year)),
            _ => None,
        }
    }

    pub(super) fn cast_float(args: &[CellRef<'_>]) -> Option<f64> {
        match args[0] {
            CellRef::Int(i) => Some(i as f64),
            CellRef::Float(f) => Some(f),
            CellRef::Str(s) => s.trim().parse::<f64>().ok(),
            _ => None,
        }
    }

    pub(super) fn cast_str(args: &[CellRef<'_>], out: &mut String) -> bool {
        let v = args[0];
        !v.is_null() && write!(out, "{v}").is_ok()
    }

    pub(super) fn concat(args: &[CellRef<'_>], out: &mut String) -> bool {
        for v in args.iter().filter(|v| !v.is_null()) {
            // Writing to a `String` cannot fail.
            let _ = write!(out, "{v}");
        }
        true
    }

    /// `int` or `float` of a numeric cell, NULL of NULL; any other cell is a
    /// type error of `context`. Int results saturate (`i64::MIN` has no
    /// positive counterpart), as `+ - *` do through their `f64` casts.
    fn of_number(
        v: CellRef<'_>,
        context: &str,
        int: fn(i64) -> i64,
        float: fn(f64) -> f64,
    ) -> EngineResult<Value> {
        match v {
            CellRef::Int(i) => Ok(Value::Int(int(i))),
            CellRef::Float(f) => Ok(Value::Float(float(f))),
            CellRef::Null => Ok(Value::Null),
            other => Err(EngineError::type_mismatch(
                context,
                "a numeric value",
                other.data_type().prompt_name(),
            )),
        }
    }

    pub(super) fn neg(v: CellRef<'_>) -> EngineResult<Value> {
        of_number(v, "unary '-'", i64::saturating_neg, std::ops::Neg::neg)
    }

    pub(super) fn not(v: CellRef<'_>) -> EngineResult<Value> {
        match v.as_bool() {
            Some(b) => Ok(Value::Bool(!b)),
            None if v.is_null() => Ok(Value::Null),
            None => Err(EngineError::type_mismatch(
                "NOT",
                "bool",
                v.data_type().prompt_name(),
            )),
        }
    }

    pub(super) fn is_null(args: &[CellRef<'_>]) -> Option<bool> {
        Some(args[0].is_null())
    }

    pub(super) fn is_not_null(args: &[CellRef<'_>]) -> Option<bool> {
        Some(!args[0].is_null())
    }

    pub(super) fn abs(v: CellRef<'_>) -> EngineResult<Value> {
        of_number(v, "ABS", i64::saturating_abs, f64::abs)
    }

    pub(super) fn round(args: &[CellRef<'_>]) -> Option<f64> {
        args[0].as_float().map(f64::round)
    }

    pub(super) fn round_to(args: &[CellRef<'_>]) -> Option<f64> {
        let factor = 10f64.powi(args[1].as_int().unwrap_or(0) as i32);
        args[0].as_float().map(|f| (f * factor).round() / factor)
    }

    pub(super) fn coalesce(args: &[CellRef<'_>]) -> Option<usize> {
        args.iter().position(|v| !v.is_null())
    }

    pub(super) fn extract_year(args: &[CellRef<'_>]) -> Option<i64> {
        match args[0] {
            CellRef::Date(d) => Some(i64::from(d.year)),
            CellRef::Int(i) => Some(i),
            CellRef::Str(s) => extract_year_from_text(s).map(i64::from),
            _ => None,
        }
    }

    pub(super) fn century(args: &[CellRef<'_>]) -> Option<i64> {
        let year = match args[0] {
            CellRef::Date(d) => Some(d.year),
            CellRef::Int(i) => Some(i as i32),
            CellRef::Float(f) => Some(f as i32),
            CellRef::Str(s) => extract_year_from_text(s),
            _ => None,
        };
        year.map(|y| i64::from(DateValue::from_year(y).century()))
    }

    /// `str::replace`, appended.
    pub(super) fn replace(args: &[CellRef<'_>], out: &mut String) -> bool {
        let (Some(s), Some(from), Some(to)) =
            (args[0].as_str(), args[1].as_str(), args[2].as_str())
        else {
            return false;
        };
        let mut last = 0;
        for (at, _) in s.match_indices(from) {
            out.push_str(&s[last..at]);
            out.push_str(to);
            last = at + from.len();
        }
        out.push_str(&s[last..]);
        true
    }

    /// Of the two cells `[a, b]`: `b` when `a` is NULL or orders
    /// `gives_way` against a non-NULL `b`, else `a`.
    fn pick(args: &[CellRef<'_>], gives_way: Ordering) -> Option<usize> {
        let (a, b) = (args[0], args[1]);
        let b_wins = !b.is_null() && (a.is_null() || a.total_cmp(b) == gives_way);
        Some(usize::from(b_wins))
    }

    pub(super) fn min2(args: &[CellRef<'_>]) -> Option<usize> {
        pick(args, Ordering::Greater)
    }

    pub(super) fn max2(args: &[CellRef<'_>]) -> Option<usize> {
        pick(args, Ordering::Less)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Row;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("title", DataType::Str),
            ("year", DataType::Int),
            ("score", DataType::Float),
        ])
    }

    fn row() -> Row {
        vec![Value::str("Madonna"), Value::Int(1889), Value::Float(0.75)]
    }

    /// Evaluate an expression over a one-column Int64 table via the batch
    /// path, returning the value for row 0.
    fn batch_eval_one(expr: &Expr, x: i64) -> EngineResult<Value> {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let columns = vec![Arc::new(Column::from_values(vec![Value::Int(x)]))];
        expr.evaluate_batch(&schema, &columns, 1).map(|c| c.get(0))
    }

    #[test]
    fn in_list_short_circuits_in_batch_evaluation() {
        // The row engine stops at the first matching list item; an erroring
        // later item (1/0) must not abort the batch path either.
        let expr = Expr::InList {
            expr: Box::new(Expr::col("x")),
            list: vec![
                Expr::lit(7),
                Expr::binary(Expr::lit(1), BinaryOp::Div, Expr::lit(0)),
            ],
            negated: false,
        };
        assert_eq!(batch_eval_one(&expr, 7).unwrap(), Value::Bool(true));
        // A non-matching needle still reaches — and reports — the error,
        // exactly like the row path.
        assert!(batch_eval_one(&expr, 8).is_err());
    }

    #[test]
    fn batch_int_arithmetic_matches_row_path_at_extremes() {
        // The row engine routes int arithmetic through f64 (saturating,
        // 53-bit precision); the typed kernel must agree exactly.
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let expr = Expr::binary(Expr::col("x"), BinaryOp::Add, Expr::col("x"));
        for x in [2i64.pow(62), i64::MAX, 2i64.pow(53) + 1, 3, -5] {
            let row_result = expr.evaluate(&schema, &[Value::Int(x)]).unwrap();
            assert_eq!(batch_eval_one(&expr, x).unwrap(), row_result, "x = {x}");
        }
    }

    #[test]
    fn column_and_literal_evaluation() {
        let s = schema();
        let r = row();
        assert_eq!(
            Expr::col("year").evaluate(&s, &r).unwrap(),
            Value::Int(1889)
        );
        assert_eq!(Expr::lit(5).evaluate(&s, &r).unwrap(), Value::Int(5));
        assert!(Expr::col("missing").evaluate(&s, &r).is_err());
    }

    #[test]
    fn arithmetic_preserves_intness() {
        let s = schema();
        let r = row();
        let expr = Expr::binary(Expr::col("year"), BinaryOp::Add, Expr::lit(1));
        assert_eq!(expr.evaluate(&s, &r).unwrap(), Value::Int(1890));
        let expr = Expr::binary(Expr::col("year"), BinaryOp::Div, Expr::lit(100));
        assert_eq!(expr.evaluate(&s, &r).unwrap(), Value::Float(18.89));
        let expr = Expr::binary(Expr::lit(10), BinaryOp::Div, Expr::lit(2));
        assert_eq!(expr.evaluate(&s, &r).unwrap(), Value::Int(5));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let s = schema();
        let r = row();
        let expr = Expr::binary(Expr::lit(1), BinaryOp::Div, Expr::lit(0));
        assert_eq!(expr.evaluate(&s, &r), Err(EngineError::DivisionByZero));
    }

    #[test]
    fn comparisons_and_three_valued_logic() {
        let s = schema();
        let r = row();
        let gt = Expr::binary(Expr::col("year"), BinaryOp::Gt, Expr::lit(1800));
        assert_eq!(gt.evaluate(&s, &r).unwrap(), Value::Bool(true));
        let and_null = Expr::binary(Expr::lit(Value::Null), BinaryOp::And, Expr::lit(false));
        assert_eq!(and_null.evaluate(&s, &r).unwrap(), Value::Bool(false));
        let or_null = Expr::binary(Expr::lit(Value::Null), BinaryOp::Or, Expr::lit(true));
        assert_eq!(or_null.evaluate(&s, &r).unwrap(), Value::Bool(true));
        let and_unknown = Expr::binary(Expr::lit(Value::Null), BinaryOp::And, Expr::lit(true));
        assert_eq!(and_unknown.evaluate(&s, &r).unwrap(), Value::Null);
    }

    #[test]
    fn comparing_string_with_number_is_a_type_error() {
        let s = schema();
        let r = row();
        let expr = Expr::binary(Expr::col("title"), BinaryOp::Gt, Expr::lit(5));
        assert!(matches!(
            expr.evaluate(&s, &r),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn like_matching() {
        assert!(like_match("Madonna and Child", "%madonna%"));
        assert!(like_match("Madonna", "M_donna"));
        assert!(!like_match("Irises", "%madonna%"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", ""));
        // A non-ASCII haystack keeps `to_lowercase`'s final-sigma rule.
        assert!(like_match("ΟΔΟΣ", "%ς"));
        assert!(!like_match("ΟΔΟΣ", "%σ"));
    }

    /// The recursive matcher `like_match` used before the two-pointer one:
    /// exponential in the number of `%`s, kept as the oracle.
    fn like_by_recursion(haystack: &str, pattern: &str) -> bool {
        fn inner(h: &[char], p: &[char]) -> bool {
            match p.first() {
                None => h.is_empty(),
                Some('%') => (0..=h.len()).any(|i| inner(&h[i..], &p[1..])),
                Some('_') => !h.is_empty() && inner(&h[1..], &p[1..]),
                Some(&c) => h.first() == Some(&c) && inner(&h[1..], &p[1..]),
            }
        }
        let h: Vec<char> = haystack.to_lowercase().chars().collect();
        let p: Vec<char> = pattern.to_lowercase().chars().collect();
        inner(&h, &p)
    }

    #[test]
    fn like_matches_what_the_recursive_matcher_matches() {
        // Wildcards, letters whose lowercase is longer (`İ` lowers to `i`
        // and a combining dot) or another letter (`ẞ` to `ß`), and ASCII.
        const PIECES: &[&str] = &["%", "_", "İ", "ẞ", "ß", "i", "a", "A", "b", "ab"];
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = |bound: usize| {
            // xorshift64: a fixed seed, so every run checks the same strings.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for _ in 0..20_000 {
            let haystack: String = (0..next(7)).map(|_| PIECES[next(PIECES.len())]).collect();
            let pattern: String = (0..next(6)).map(|_| PIECES[next(PIECES.len())]).collect();
            assert_eq!(
                like_match(&haystack, &pattern),
                like_by_recursion(&haystack, &pattern),
                "{haystack:?} LIKE {pattern:?}"
            );
        }
    }

    #[test]
    fn like_with_many_wildcards_finishes() {
        // The recursive matcher retried the rest of the pattern at every
        // position for each `%`: hours for this one match.
        let haystack = "a".repeat(2_000);
        let pattern = format!("{}%b", "%a".repeat(12));
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(like_match(&haystack, &pattern)));
        let matched = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a 12-wildcard LIKE over 2,000 characters must finish");
        assert!(!matched);
        worker.join().unwrap().unwrap();
    }

    #[test]
    fn in_list_and_negation() {
        let s = schema();
        let r = row();
        let expr = Expr::InList {
            expr: Box::new(Expr::col("title")),
            list: vec![Expr::lit("Madonna"), Expr::lit("Irises")],
            negated: false,
        };
        assert_eq!(expr.evaluate(&s, &r).unwrap(), Value::Bool(true));
        let expr = Expr::InList {
            expr: Box::new(Expr::col("title")),
            list: vec![Expr::lit("Scream")],
            negated: true,
        };
        assert_eq!(expr.evaluate(&s, &r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn case_expression_branches() {
        let s = schema();
        let r = row();
        let expr = Expr::Case {
            branches: vec![(
                Expr::binary(Expr::col("year"), BinaryOp::Lt, Expr::lit(1500)),
                Expr::lit("old"),
            )],
            otherwise: Some(Box::new(Expr::lit("new"))),
        };
        assert_eq!(expr.evaluate(&s, &r).unwrap(), Value::str("new"));
    }

    #[test]
    fn scalar_functions_cover_casts_and_strings() {
        let s = Schema::empty();
        let r: Row = vec![];
        let call = |func, args: Vec<Expr>| Expr::Func { func, args }.evaluate(&s, &r).unwrap();
        assert_eq!(
            call(ScalarFunc::Lower, vec![Expr::lit("ABC")]),
            Value::str("abc")
        );
        assert_eq!(
            call(ScalarFunc::Length, vec![Expr::lit("abcd")]),
            Value::Int(4)
        );
        assert_eq!(
            call(
                ScalarFunc::Substr,
                vec![Expr::lit("1889-01-05"), Expr::lit(1), Expr::lit(4)]
            ),
            Value::str("1889")
        );
        assert_eq!(
            call(ScalarFunc::CastInt, vec![Expr::lit("1889")]),
            Value::Int(1889)
        );
        assert_eq!(
            call(ScalarFunc::CastInt, vec![Expr::lit("c. 1503")]),
            Value::Int(1503)
        );
        assert_eq!(
            call(ScalarFunc::Century, vec![Expr::lit("1889-01-05")]),
            Value::Int(19)
        );
        assert_eq!(
            call(
                ScalarFunc::ExtractYear,
                vec![Expr::lit("painted in 1480, restored")]
            ),
            Value::Int(1480)
        );
        assert_eq!(
            call(
                ScalarFunc::Concat,
                vec![Expr::lit("a"), Expr::lit("-"), Expr::lit("b")]
            ),
            Value::str("a-b")
        );
        assert_eq!(
            call(
                ScalarFunc::Coalesce,
                vec![Expr::lit(Value::Null), Expr::lit(7)]
            ),
            Value::Int(7)
        );
        assert_eq!(
            call(
                ScalarFunc::Replace,
                vec![Expr::lit("a-b"), Expr::lit("-"), Expr::lit("+")]
            ),
            Value::str("a+b")
        );
        assert_eq!(
            call(ScalarFunc::Max2, vec![Expr::lit(3), Expr::lit(9)]),
            Value::Int(9)
        );
    }

    #[test]
    fn string_functions_write_what_the_std_methods_return() {
        // ASCII, letters whose case mapping is longer (`ß` uppers to `SS`,
        // `İ` lowers to `i` and a combining dot), a final sigma, spaces to
        // trim, and empty strings.
        const PIECES: &[&str] = &["a", "B", "ß", "İ", "Σ", "ς", " ", "ab", "中", "-", ""];
        let mut state = 0x51A7_E5C0_FFEE_0001_u64;
        let mut next = |bound: usize| {
            // xorshift64: a fixed seed, so every run checks the same strings.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut strings: Vec<String> = (0..2_000)
            .map(|_| (0..next(6)).map(|_| PIECES[next(PIECES.len())]).collect())
            .collect();
        strings.push("ΟΔΟΣ".to_string());
        let schema = Schema::from_pairs(&[("s", DataType::Str)]);
        let mut values: Vec<Value> = strings.iter().map(Value::str).collect();
        values.push(Value::Null);
        let columns = vec![Arc::new(Column::from_values(values))];
        let rows = strings.len() + 1;
        let func = |func, args: Vec<Expr>| Expr::Func { func, args };
        type StdMethod = fn(&str) -> String;
        let cases: [(Expr, StdMethod); 4] = [
            (
                func(ScalarFunc::Upper, vec![Expr::col("s")]),
                str::to_uppercase,
            ),
            (
                func(ScalarFunc::Lower, vec![Expr::col("s")]),
                str::to_lowercase,
            ),
            (func(ScalarFunc::Trim, vec![Expr::col("s")]), |s| {
                s.trim().to_string()
            }),
            (
                func(
                    ScalarFunc::Replace,
                    vec![Expr::col("s"), Expr::lit("a"), Expr::lit("Σx")],
                ),
                |s| s.replace('a', "Σx"),
            ),
        ];
        for (expr, std_method) in cases {
            let out = expr.evaluate_batch(&schema, &columns, rows).unwrap();
            assert!(matches!(*out, Column::Utf8(..)), "{expr}");
            for (i, s) in strings.iter().enumerate() {
                let want = Value::str(std_method(s));
                assert_eq!(out.get(i), want, "{expr} of {s:?}");
                assert_eq!(expr.evaluate(&schema, &[Value::str(s)]).unwrap(), want);
            }
            assert!(out.get(rows - 1).is_null(), "{expr} of NULL");
        }
    }

    /// The char-based scan `extract_year_from_text` had before it read
    /// bytes, kept as the oracle of the byte scan.
    fn extract_year_by_chars(text: &str) -> Option<i32> {
        let chars: Vec<char> = text.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            if chars[i].is_ascii_digit() {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let run: String = chars[start..i].iter().collect();
                if run.len() == 4 {
                    if let Ok(year) = run.parse::<i32>() {
                        if (500..=2100).contains(&year) {
                            return Some(year);
                        }
                    }
                }
            } else {
                i += 1;
            }
        }
        None
    }

    #[test]
    fn byte_scan_finds_the_year_the_char_scan_finds() {
        // Digits near the window's edges, multi-byte letters, and digits
        // of other scripts (Arabic-Indic, fullwidth) that are not ASCII.
        const PIECES: &[&str] = &[
            "0",
            "1",
            "2",
            "4",
            "5",
            "9",
            "00",
            "499",
            "500",
            "0499",
            "0500",
            "2100",
            "2101",
            "1889",
            "12345",
            "-",
            " ",
            "c. ",
            "é",
            "日本",
            "🎨",
            "٢٠٢٠",
            "２０２０",
            "٣",
            "a",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = |bound: usize| {
            // xorshift64: a fixed seed, so every run checks the same strings.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for _ in 0..20_000 {
            let text: String = (0..next(7)).map(|_| PIECES[next(PIECES.len())]).collect();
            assert_eq!(
                extract_year_from_text(&text),
                extract_year_by_chars(&text),
                "{text:?}"
            );
        }
        for (text, year) in [
            ("٢٠٢٠ and 1889", Some(1889)),
            ("２０２０", None),
            ("é1503é", Some(1503)),
            ("12345 0499 2101 0500", Some(500)),
        ] {
            assert_eq!(extract_year_from_text(text), year, "{text:?}");
        }
    }

    #[test]
    fn func_lookup_by_name_is_case_insensitive() {
        assert_eq!(ScalarFunc::from_name("lower"), Some(ScalarFunc::Lower));
        assert_eq!(ScalarFunc::from_name("CENTURY"), Some(ScalarFunc::Century));
        assert_eq!(ScalarFunc::from_name("nope"), None);
    }

    #[test]
    fn referenced_columns_are_collected_once() {
        let expr = Expr::binary(
            Expr::col("year"),
            BinaryOp::Add,
            Expr::binary(Expr::col("year"), BinaryOp::Mul, Expr::col("score")),
        );
        assert_eq!(expr.referenced_columns(), vec!["year", "score"]);
    }

    #[test]
    fn output_types_are_inferred() {
        let s = schema();
        assert_eq!(Expr::col("year").output_type(&s), DataType::Int);
        assert_eq!(
            Expr::binary(Expr::col("year"), BinaryOp::Gt, Expr::lit(3)).output_type(&s),
            DataType::Bool
        );
        assert_eq!(
            Expr::Func {
                func: ScalarFunc::Century,
                args: vec![Expr::col("title")]
            }
            .output_type(&s),
            DataType::Int
        );
    }

    #[test]
    fn display_round_trips_reasonably() {
        let expr = Expr::binary(Expr::col("year"), BinaryOp::GtEq, Expr::lit(1800));
        assert_eq!(expr.to_string(), "(year >= 1800)");
        let expr = Expr::Func {
            func: ScalarFunc::Century,
            args: vec![Expr::col("inception")],
        };
        assert_eq!(expr.to_string(), "CENTURY(inception)");
    }

    #[test]
    fn unary_operators() {
        let s = schema();
        let r = row();
        let neg = Expr::Unary {
            op: UnaryOp::Neg,
            operand: Box::new(Expr::col("year")),
        };
        assert_eq!(neg.evaluate(&s, &r).unwrap(), Value::Int(-1889));
        let is_null = Expr::Unary {
            op: UnaryOp::IsNull,
            operand: Box::new(Expr::lit(Value::Null)),
        };
        assert_eq!(is_null.evaluate(&s, &r).unwrap(), Value::Bool(true));
        let not = Expr::Unary {
            op: UnaryOp::Not,
            operand: Box::new(Expr::lit(true)),
        };
        assert_eq!(not.evaluate(&s, &r).unwrap(), Value::Bool(false));
    }
}
