//! Scalar expressions and their evaluation.
//!
//! Expressions are produced by the SQL front-end (`sql` module) and by the
//! transform-DSL of the Python-UDF substitute in `caesura-modal`. They can be
//! evaluated two ways:
//!
//! * **column-at-a-time** via [`Expr::evaluate_batch`] — the vectorized path
//!   the physical operators use. The expression is first lowered to a
//!   [`CompiledExpr`] (column names bound to indices, constant subtrees
//!   folded — see [`compile`]), then evaluated over zero-copy row-range
//!   views of the input columns, with typed kernels (and scalar
//!   broadcasting for literals) for the common numeric and string cases and
//!   an element-wise fallback where per-row dynamic typing demands it;
//! * **row-at-a-time** via [`Expr::evaluate`] against a [`Schema`] + value
//!   slice — kept for per-row consumers such as the perception operators.
//!
//! The pre-compilation interpreter is retained as
//! [`Expr::evaluate_batch_interpreted`] / [`Expr::selection_vector_interpreted`]:
//! it is the executable reference the property tests compare the compiled
//! evaluator against. Both paths share the innermost binary-operator kernels
//! ([`compile::eval_binary_view`](self::compile)), so they cannot drift.

pub mod compile;

pub use compile::CompiledExpr;

use crate::column::Column;
use crate::error::{EngineError, EngineResult};
use crate::schema::Schema;
use crate::value::{DataType, DateValue, Value};
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
        match self {
            Expr::Literal(_) => {}
            Expr::Column(name) => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Unary { operand, .. } => operand.collect_columns(out),
            Expr::Func { args, .. } => {
                for arg in args {
                    arg.collect_columns(out);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for item in list {
                    item.collect_columns(out);
                }
            }
            Expr::Case {
                branches,
                otherwise,
            } => {
                for (cond, result) in branches {
                    cond.collect_columns(out);
                    result.collect_columns(out);
                }
                if let Some(e) = otherwise {
                    e.collect_columns(out);
                }
            }
        }
    }

    /// Evaluate the expression against one row (a slice of cell values in
    /// schema order).
    pub fn evaluate(&self, schema: &Schema, row: &[Value]) -> EngineResult<Value> {
        match self {
            Expr::Literal(value) => Ok(value.clone()),
            Expr::Column(name) => {
                let idx = schema.resolve(name)?;
                Ok(row[idx].clone())
            }
            Expr::Binary { left, op, right } => {
                let lhs = left.evaluate(schema, row)?;
                let rhs = right.evaluate(schema, row)?;
                eval_binary(&lhs, *op, &rhs)
            }
            Expr::Unary { op, operand } => {
                let value = operand.evaluate(schema, row)?;
                eval_unary(*op, &value)
            }
            Expr::Func { func, args } => {
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(arg.evaluate(schema, row)?);
                }
                eval_func(*func, &values)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = expr.evaluate(schema, row)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for item in list {
                    let candidate = item.evaluate(schema, row)?;
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
                    let test = cond.evaluate(schema, row)?;
                    if test.as_bool() == Some(true) {
                        return result.evaluate(schema, row);
                    }
                }
                match otherwise {
                    Some(e) => e.evaluate(schema, row),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    /// Evaluate the expression as a boolean predicate (NULL counts as false).
    pub fn evaluate_predicate(&self, schema: &Schema, row: &[Value]) -> EngineResult<bool> {
        let value = self.evaluate(schema, row)?;
        Ok(value.as_bool().unwrap_or(false))
    }

    /// Evaluate the expression for every row at once, producing one column.
    ///
    /// `columns` are the input table's columns in schema order and `num_rows`
    /// its row count. The expression is lowered to a [`CompiledExpr`] once
    /// (column names bound to indices, constant subtrees folded), then
    /// evaluated in one pass over the shared input columns.
    pub fn evaluate_batch(
        &self,
        schema: &Schema,
        columns: &[Arc<Column>],
        num_rows: usize,
    ) -> EngineResult<Arc<Column>> {
        // Literals stay scalar and plain column references stay zero-copy
        // `Arc` bumps — compiling either would only add work.
        if matches!(self, Expr::Literal(_) | Expr::Column(_)) {
            return Ok(self
                .evaluate_batch_inner(schema, columns, num_rows)?
                .materialize(num_rows));
        }
        CompiledExpr::compile(self, schema).evaluate_range(columns, 0..num_rows)
    }

    /// The pre-compilation batch evaluator, kept as the executable reference
    /// for the compiled path (`tests/property_encoded.rs` proves them
    /// byte-identical). Interprets the AST per batch instead of compiling
    /// once.
    pub fn evaluate_batch_interpreted(
        &self,
        schema: &Schema,
        columns: &[Arc<Column>],
        num_rows: usize,
    ) -> EngineResult<Arc<Column>> {
        Ok(self
            .evaluate_batch_inner(schema, columns, num_rows)?
            .materialize(num_rows))
    }

    /// Evaluate the expression as a predicate over all rows and return the
    /// selection vector of row indices where it is true (NULL = not selected).
    ///
    /// Like [`Expr::evaluate_batch`], the expression is compiled once and
    /// evaluated in one pass.
    pub fn selection_vector(
        &self,
        schema: &Schema,
        columns: &[Arc<Column>],
        num_rows: usize,
    ) -> EngineResult<Vec<usize>> {
        CompiledExpr::compile(self, schema).selection_range(columns, 0..num_rows)
    }

    /// The pre-compilation selection-vector evaluator — the executable
    /// reference for [`Expr::selection_vector`], interpreting the AST.
    pub fn selection_vector_interpreted(
        &self,
        schema: &Schema,
        columns: &[Arc<Column>],
        num_rows: usize,
    ) -> EngineResult<Vec<usize>> {
        match self.evaluate_batch_inner(schema, columns, num_rows)? {
            Batch::Scalar(v) => Ok(if v.as_bool() == Some(true) {
                (0..num_rows).collect()
            } else {
                Vec::new()
            }),
            Batch::Col(col) => {
                let mut selected = Vec::new();
                if let Some((data, validity)) = col.as_bools() {
                    for (i, &b) in data.iter().enumerate() {
                        if b && validity.is_valid(i) {
                            selected.push(i);
                        }
                    }
                } else {
                    for i in 0..num_rows {
                        if col.get(i).as_bool() == Some(true) {
                            selected.push(i);
                        }
                    }
                }
                Ok(selected)
            }
        }
    }

    /// Evaluate the expression at one row, reading cells directly from the
    /// columns. Used for constructs whose branches must stay lazy per row
    /// (CASE) and as the general per-row fallback.
    pub fn evaluate_at(
        &self,
        schema: &Schema,
        columns: &[Arc<Column>],
        i: usize,
    ) -> EngineResult<Value> {
        match self {
            Expr::Literal(value) => Ok(value.clone()),
            Expr::Column(name) => {
                let idx = schema.resolve(name)?;
                Ok(columns[idx].get(i))
            }
            Expr::Binary { left, op, right } => {
                let lhs = left.evaluate_at(schema, columns, i)?;
                let rhs = right.evaluate_at(schema, columns, i)?;
                eval_binary(&lhs, *op, &rhs)
            }
            Expr::Unary { op, operand } => {
                let value = operand.evaluate_at(schema, columns, i)?;
                eval_unary(*op, &value)
            }
            Expr::Func { func, args } => {
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(arg.evaluate_at(schema, columns, i)?);
                }
                eval_func(*func, &values)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = expr.evaluate_at(schema, columns, i)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let mut found = false;
                for item in list {
                    let candidate = item.evaluate_at(schema, columns, i)?;
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
                    if cond.evaluate_at(schema, columns, i)?.as_bool() == Some(true) {
                        return result.evaluate_at(schema, columns, i);
                    }
                }
                match otherwise {
                    Some(e) => e.evaluate_at(schema, columns, i),
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
        match self {
            Expr::Literal(value) => Ok(Batch::Scalar(value.clone())),
            Expr::Column(name) => {
                let idx = schema.resolve(name)?;
                Ok(Batch::Col(Arc::clone(&columns[idx])))
            }
            Expr::Binary { left, op, right } => {
                let lhs = left.evaluate_batch_inner(schema, columns, num_rows)?;
                let rhs = right.evaluate_batch_inner(schema, columns, num_rows)?;
                eval_binary_batch(&lhs, *op, &rhs, num_rows)
            }
            Expr::Unary { op, operand } => {
                match operand.evaluate_batch_inner(schema, columns, num_rows)? {
                    Batch::Scalar(v) => Ok(Batch::Scalar(eval_unary(*op, &v)?)),
                    Batch::Col(col) => {
                        let mut out = Vec::with_capacity(num_rows);
                        for i in 0..num_rows {
                            out.push(eval_unary(*op, &col.get(i))?);
                        }
                        Ok(Batch::Col(Arc::new(Column::from_values(out))))
                    }
                }
            }
            Expr::Func { func, args } => {
                let mut batches = Vec::with_capacity(args.len());
                for arg in args {
                    batches.push(arg.evaluate_batch_inner(schema, columns, num_rows)?);
                }
                if batches.iter().all(|b| matches!(b, Batch::Scalar(_))) {
                    let argv: Vec<Value> = batches.iter().map(|b| b.get(0)).collect();
                    return Ok(Batch::Scalar(eval_func(*func, &argv)?));
                }
                let mut out = Vec::with_capacity(num_rows);
                let mut argv: Vec<Value> = Vec::with_capacity(batches.len());
                for i in 0..num_rows {
                    argv.clear();
                    for batch in &batches {
                        argv.push(batch.get(i));
                    }
                    out.push(eval_func(*func, &argv)?);
                }
                Ok(Batch::Col(Arc::new(Column::from_values(out))))
            }
            // IN-list items and CASE branches must only be evaluated as far
            // as each row needs them (the row engine short-circuits on the
            // first match / taken branch; a vectorized evaluation of every
            // item could raise errors — e.g. division by zero — the row
            // engine never would), so both stay per-row.
            Expr::InList { .. } | Expr::Case { .. } => {
                let mut out = Vec::with_capacity(num_rows);
                for i in 0..num_rows {
                    out.push(self.evaluate_at(schema, columns, i)?);
                }
                Ok(Batch::Col(Arc::new(Column::from_values(out))))
            }
        }
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
                ScalarFunc::CastFloat | ScalarFunc::Round | ScalarFunc::Abs => DataType::Float,
                ScalarFunc::Coalesce | ScalarFunc::Min2 | ScalarFunc::Max2 => args
                    .first()
                    .map(|a| a.output_type(schema))
                    .unwrap_or(DataType::Null),
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
/// constant-folded sub-trees). Keeping scalars unexpanded lets the binary
/// kernels run column-vs-constant loops without allocating literal columns.
enum Batch {
    /// A per-row column.
    Col(Arc<Column>),
    /// One value standing for every row.
    Scalar(Value),
}

impl Batch {
    #[inline]
    fn get(&self, i: usize) -> Value {
        match self {
            Batch::Col(col) => col.get(i),
            Batch::Scalar(v) => v.clone(),
        }
    }

    fn materialize(self, num_rows: usize) -> Arc<Column> {
        match self {
            Batch::Col(col) => col,
            Batch::Scalar(v) => Arc::new(Column::from_values(vec![v; num_rows])),
        }
    }
}

/// Evaluate a binary operation over two batches. Delegates to the shared
/// offset-aware kernel [`compile::eval_binary_view`] (typed vector loops for
/// numeric arithmetic/comparisons and string comparisons/LIKE — including
/// code-native dictionary kernels — with an element-wise [`eval_binary`]
/// fallback), viewing each batch at offset zero.
fn eval_binary_batch(
    lhs: &Batch,
    op: BinaryOp,
    rhs: &Batch,
    num_rows: usize,
) -> EngineResult<Batch> {
    compile::eval_binary_view(&batch_view(lhs), op, &batch_view(rhs), num_rows)
}

fn batch_view(batch: &Batch) -> compile::ValuesView<'_> {
    match batch {
        Batch::Col(col) => compile::ValuesView::View {
            col: col.as_ref(),
            offset: 0,
        },
        Batch::Scalar(v) => compile::ValuesView::Scalar(v),
    }
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

fn numeric_pair(lhs: &Value, rhs: &Value, context: &str) -> EngineResult<(f64, f64, bool)> {
    let both_int = matches!(lhs, Value::Int(_)) && matches!(rhs, Value::Int(_));
    let l = lhs.as_float().ok_or_else(|| {
        EngineError::type_mismatch(context, "a numeric value", lhs.data_type().prompt_name())
    })?;
    let r = rhs.as_float().ok_or_else(|| {
        EngineError::type_mismatch(context, "a numeric value", rhs.data_type().prompt_name())
    })?;
    Ok((l, r, both_int))
}

/// Evaluate a binary operation on two already-computed values.
pub fn eval_binary(lhs: &Value, op: BinaryOp, rhs: &Value) -> EngineResult<Value> {
    use BinaryOp::*;
    // Three-valued logic for AND/OR must be handled before the NULL shortcut.
    match op {
        And => {
            let l = lhs.as_bool();
            let r = rhs.as_bool();
            return Ok(match (l, r) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            });
        }
        Or => {
            let l = lhs.as_bool();
            let r = rhs.as_bool();
            return Ok(match (l, r) {
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
            let (l, r, both_int) = numeric_pair(lhs, rhs, &format!("operator '{op}'"))?;
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
            let (l, r, both_int) = numeric_pair(lhs, rhs, "operator '/'")?;
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
            let ordering = lhs.total_cmp(rhs);
            let result = match op {
                Lt => ordering == std::cmp::Ordering::Less,
                LtEq => ordering != std::cmp::Ordering::Greater,
                Gt => ordering == std::cmp::Ordering::Greater,
                GtEq => ordering != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(result))
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
    let h: Vec<char> = haystack.to_lowercase().chars().collect();
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    like_match_inner(&h, &p)
}

fn like_match_inner(h: &[char], p: &[char]) -> bool {
    if p.is_empty() {
        return h.is_empty();
    }
    match p[0] {
        '%' => {
            // Try to match the rest of the pattern at every position.
            (0..=h.len()).any(|i| like_match_inner(&h[i..], &p[1..]))
        }
        '_' => !h.is_empty() && like_match_inner(&h[1..], &p[1..]),
        c => !h.is_empty() && h[0] == c && like_match_inner(&h[1..], &p[1..]),
    }
}

fn eval_unary(op: UnaryOp, value: &Value) -> EngineResult<Value> {
    match op {
        UnaryOp::Neg => match value {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(EngineError::type_mismatch(
                "unary '-'",
                "a numeric value",
                other.data_type().prompt_name(),
            )),
        },
        UnaryOp::Not => match value.as_bool() {
            Some(b) => Ok(Value::Bool(!b)),
            None if value.is_null() => Ok(Value::Null),
            None => Err(EngineError::type_mismatch(
                "NOT",
                "bool",
                value.data_type().prompt_name(),
            )),
        },
        UnaryOp::IsNull => Ok(Value::Bool(value.is_null())),
        UnaryOp::IsNotNull => Ok(Value::Bool(!value.is_null())),
    }
}

/// Extract the first 4-digit year appearing in a string.
pub fn extract_year_from_text(text: &str) -> Option<i32> {
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let run: String = bytes[start..i].iter().collect();
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

fn eval_func(func: ScalarFunc, args: &[Value]) -> EngineResult<Value> {
    let arity_error = |expected: &str| {
        Err(EngineError::InvalidFunctionCall {
            function: func.name().to_string(),
            message: format!("expected {expected} argument(s), got {}", args.len()),
        })
    };
    match func {
        ScalarFunc::Lower => match args {
            [v] => Ok(v
                .as_str()
                .map(|s| Value::str(s.to_lowercase()))
                .unwrap_or(Value::Null)),
            _ => arity_error("1"),
        },
        ScalarFunc::Upper => match args {
            [v] => Ok(v
                .as_str()
                .map(|s| Value::str(s.to_uppercase()))
                .unwrap_or(Value::Null)),
            _ => arity_error("1"),
        },
        ScalarFunc::Length => match args {
            [v] => Ok(v
                .as_str()
                .map(|s| Value::Int(s.chars().count() as i64))
                .unwrap_or(Value::Null)),
            _ => arity_error("1"),
        },
        ScalarFunc::Substr => match args {
            [v, start, len] => {
                let s = match v.as_str() {
                    Some(s) => s,
                    None => return Ok(Value::Null),
                };
                let start = start.as_int().unwrap_or(1).max(1) as usize - 1;
                let len = len.as_int().unwrap_or(0).max(0) as usize;
                let sub: String = s.chars().skip(start).take(len).collect();
                Ok(Value::str(sub))
            }
            [v, start] => {
                let s = match v.as_str() {
                    Some(s) => s,
                    None => return Ok(Value::Null),
                };
                let start = start.as_int().unwrap_or(1).max(1) as usize - 1;
                let sub: String = s.chars().skip(start).collect();
                Ok(Value::str(sub))
            }
            _ => arity_error("2 or 3"),
        },
        ScalarFunc::CastInt => match args {
            [v] => Ok(match v {
                Value::Int(i) => Value::Int(*i),
                Value::Float(f) => Value::Int(*f as i64),
                Value::Bool(b) => Value::Int(i64::from(*b)),
                Value::Str(s) => {
                    let trimmed = s.trim();
                    match trimmed.parse::<i64>() {
                        Ok(i) => Value::Int(i),
                        Err(_) => match trimmed.parse::<f64>() {
                            Ok(f) => Value::Int(f as i64),
                            Err(_) => extract_year_from_text(trimmed)
                                .map(|y| Value::Int(y as i64))
                                .unwrap_or(Value::Null),
                        },
                    }
                }
                Value::Date(d) => Value::Int(d.year as i64),
                _ => Value::Null,
            }),
            _ => arity_error("1"),
        },
        ScalarFunc::CastFloat => match args {
            [v] => Ok(match v {
                Value::Int(i) => Value::Float(*i as f64),
                Value::Float(f) => Value::Float(*f),
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Float)
                    .unwrap_or(Value::Null),
                _ => Value::Null,
            }),
            _ => arity_error("1"),
        },
        ScalarFunc::CastStr => match args {
            [v] => Ok(if v.is_null() {
                Value::Null
            } else {
                Value::str(v.to_string())
            }),
            _ => arity_error("1"),
        },
        ScalarFunc::Concat => {
            let mut out = String::new();
            for v in args {
                if !v.is_null() {
                    out.push_str(&v.to_string());
                }
            }
            Ok(Value::str(out))
        }
        ScalarFunc::Abs => match args {
            [Value::Int(i)] => Ok(Value::Int(i.abs())),
            [Value::Float(f)] => Ok(Value::Float(f.abs())),
            [Value::Null] => Ok(Value::Null),
            [other] => Err(EngineError::type_mismatch(
                "ABS",
                "a numeric value",
                other.data_type().prompt_name(),
            )),
            _ => arity_error("1"),
        },
        ScalarFunc::Round => match args {
            [v] => Ok(v
                .as_float()
                .map(|f| Value::Float(f.round()))
                .unwrap_or(Value::Null)),
            [v, digits] => {
                let d = digits.as_int().unwrap_or(0);
                let factor = 10f64.powi(d as i32);
                Ok(v.as_float()
                    .map(|f| Value::Float((f * factor).round() / factor))
                    .unwrap_or(Value::Null))
            }
            _ => arity_error("1 or 2"),
        },
        ScalarFunc::Coalesce => {
            for v in args {
                if !v.is_null() {
                    return Ok(v.clone());
                }
            }
            Ok(Value::Null)
        }
        ScalarFunc::ExtractYear => match args {
            [v] => Ok(match v {
                Value::Date(d) => Value::Int(d.year as i64),
                Value::Int(i) => Value::Int(*i),
                Value::Str(s) => extract_year_from_text(s)
                    .map(|y| Value::Int(y as i64))
                    .unwrap_or(Value::Null),
                _ => Value::Null,
            }),
            _ => arity_error("1"),
        },
        ScalarFunc::Century => match args {
            [v] => {
                let year = match v {
                    Value::Date(d) => Some(d.year),
                    Value::Int(i) => Some(*i as i32),
                    Value::Float(f) => Some(*f as i32),
                    Value::Str(s) => extract_year_from_text(s),
                    _ => None,
                };
                Ok(year
                    .map(|y| Value::Int(DateValue::from_year(y).century() as i64))
                    .unwrap_or(Value::Null))
            }
            _ => arity_error("1"),
        },
        ScalarFunc::Trim => match args {
            [v] => Ok(v
                .as_str()
                .map(|s| Value::str(s.trim()))
                .unwrap_or(Value::Null)),
            _ => arity_error("1"),
        },
        ScalarFunc::Replace => match args {
            [v, from, to] => {
                let (s, from, to) = match (v.as_str(), from.as_str(), to.as_str()) {
                    (Some(s), Some(f), Some(t)) => (s, f, t),
                    _ => return Ok(Value::Null),
                };
                Ok(Value::str(s.replace(from, to)))
            }
            _ => arity_error("3"),
        },
        ScalarFunc::Min2 => match args {
            [a, b] => Ok(if a.is_null() {
                b.clone()
            } else if b.is_null() {
                a.clone()
            } else if a.total_cmp(b) == std::cmp::Ordering::Greater {
                b.clone()
            } else {
                a.clone()
            }),
            _ => arity_error("2"),
        },
        ScalarFunc::Max2 => match args {
            [a, b] => Ok(if a.is_null() {
                b.clone()
            } else if b.is_null() {
                a.clone()
            } else if a.total_cmp(b) == std::cmp::Ordering::Less {
                b.clone()
            } else {
                a.clone()
            }),
            _ => arity_error("2"),
        },
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
