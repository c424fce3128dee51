//! The column kernels behind [`Expr::evaluate_batch`] and
//! [`Expr::selection_vector`](super::Expr::selection_vector), all reading
//! their operands through one set of views ([`ValuesView`]: a borrowed
//! column or a broadcast scalar). Every kernel returns a column, and each
//! runs over exactly the rows it is given: over zero rows it computes
//! nothing and raises nothing.
//!
//! [`eval_binary_view`] runs typed numeric loops, and string compare/`LIKE`
//! loops over plain or dictionary-encoded columns. A dictionary column
//! compared with a string literal runs one comparison per *dictionary entry*
//! instead of one per row; every other construct over a dictionary column
//! (column-vs-column compares) reads its strings row by row. Every other
//! operand shape (`AND`/`OR`, `/`, `%`, mixed types) runs the operator's
//! per-row rule, [`eval_binary`], on cells read in place.
//!
//! [`eval_cell_fn`] runs a unary operator or a scalar function column at a
//! time: its per-row code ([`CellFn`]) is resolved once, and each row's
//! argument cells are read in place from the views (a plain string column
//! in slot order, a dictionary string from its entry table, a scalar from
//! the literal). A function with one result type (`EXTRACT_YEAR`,
//! `CENTURY`, `LENGTH`, the casts, `ROUND`, `IS NULL`) writes its typed
//! result straight into the output's vector and bitmap; a string function
//! (`UPPER`, `SUBSTR`, `CONCAT`, ...) appends its result to the output's one
//! byte buffer, sized at the bytes of its string arguments. A function that
//! picks one of its arguments (`COALESCE`, `MIN2`, `MAX2`) has the chosen
//! cell copied into the output as it stands.
//!
//! [`scatter`] puts the parts of a `CASE` result, each computed over the
//! rows that took one branch, back into row order.
//!
//! The per-row rules are the row evaluator's own, so each operator's and
//! each function's semantics are written once. The error rule is the
//! module's above: value errors are per row, so a kernel over zero rows
//! raises none, and where rows fail in different ways a kernel reports the
//! first failing row in row order.
//!
//! [`Expr::evaluate_batch`]: super::Expr::evaluate_batch

use super::{eval_binary, int_cmp_result, like_match, Batch, BinaryOp, CellFn, LikePattern};
use crate::column::{Bitmap, Column, ColumnBuilder, Utf8Buffer};
use crate::error::EngineResult;
use crate::value::{CellRef, DataType, Value};
use std::convert::Infallible;
use std::sync::Arc;

/// A kernel operand: a borrowed column (zero-copy), or a scalar broadcast
/// across the batch.
pub(super) enum ValuesView<'a> {
    /// A whole column; the kernel reads its first `num_rows` rows.
    Col(&'a Column),
    /// One value standing for every row.
    Scalar(&'a Value),
}

impl<'a> ValuesView<'a> {
    /// Row `i`'s cell, read in place.
    #[inline]
    pub(super) fn cell(&self, i: usize) -> CellRef<'a> {
        match self {
            ValuesView::Col(col) => col.cell(i),
            ValuesView::Scalar(v) => v.cell(),
        }
    }
}

/// A unified numeric view of an operand: column data sliced to the batch,
/// with its validity bitmap.
enum NumOp<'a> {
    IntCol(&'a [i64], &'a Bitmap),
    FloatCol(&'a [f64], &'a Bitmap),
    IntScalar(i64),
    FloatScalar(f64),
}

impl NumOp<'_> {
    fn from_view<'a>(view: &ValuesView<'a>, len: usize) -> Option<NumOp<'a>> {
        match view {
            ValuesView::Col(col) => match col {
                Column::Int64(v, b) => Some(NumOp::IntCol(&v[..len], b)),
                Column::Float64(v, b) => Some(NumOp::FloatCol(&v[..len], b)),
                _ => None,
            },
            ValuesView::Scalar(Value::Int(i)) => Some(NumOp::IntScalar(*i)),
            ValuesView::Scalar(Value::Float(f)) => Some(NumOp::FloatScalar(*f)),
            _ => None,
        }
    }

    fn is_int(&self) -> bool {
        matches!(self, NumOp::IntCol(..) | NumOp::IntScalar(_))
    }

    #[inline]
    fn valid(&self, i: usize) -> bool {
        match self {
            NumOp::IntCol(_, b) | NumOp::FloatCol(_, b) => b.is_valid(i),
            _ => true,
        }
    }

    #[inline]
    fn int_at(&self, i: usize) -> i64 {
        match self {
            NumOp::IntCol(v, ..) => v[i],
            NumOp::IntScalar(s) => *s,
            _ => unreachable!("int_at on a float operand"),
        }
    }

    #[inline]
    fn float_at(&self, i: usize) -> f64 {
        match self {
            NumOp::IntCol(v, ..) => v[i] as f64,
            NumOp::FloatCol(v, ..) => v[i],
            NumOp::IntScalar(s) => *s as f64,
            NumOp::FloatScalar(s) => *s,
        }
    }
}

/// A string-column operand: plain UTF-8 (read up to the batch's rows) or
/// dictionary-encoded (its codes sliced to the batch), with its validity
/// bitmap.
enum StrSide<'a> {
    Plain(&'a Utf8Buffer, &'a Bitmap),
    Dict(&'a [u32], &'a Utf8Buffer, &'a Bitmap),
}

impl StrSide<'_> {
    fn from_view<'a>(view: &ValuesView<'a>, len: usize) -> Option<StrSide<'a>> {
        match view {
            ValuesView::Col(col) => match col {
                Column::Utf8(v, b) => Some(StrSide::Plain(v, b)),
                Column::Dict {
                    codes,
                    dict,
                    bitmap,
                } => Some(StrSide::Dict(&codes[..len], dict, bitmap)),
                _ => None,
            },
            ValuesView::Scalar(_) => None,
        }
    }

    #[inline]
    fn valid(&self, i: usize) -> bool {
        match self {
            StrSide::Plain(_, b) | StrSide::Dict(_, _, b) => b.is_valid(i),
        }
    }

    #[inline]
    fn str_at(&self, i: usize) -> &str {
        match self {
            StrSide::Plain(v, ..) => v.get(i),
            StrSide::Dict(codes, dict, ..) => dict.get(codes[i] as usize),
        }
    }
}

/// Evaluate a binary operation over two operand views. Uses typed
/// vector loops for numeric arithmetic/comparisons and string
/// comparisons/LIKE (with a code-native kernel for a dictionary column
/// against a string literal), and runs the per-row rule [`eval_binary`]
/// everywhere else.
pub(super) fn eval_binary_view(
    lhs: &ValuesView<'_>,
    op: BinaryOp,
    rhs: &ValuesView<'_>,
    num_rows: usize,
) -> EngineResult<Column> {
    use BinaryOp::*;
    // Typed numeric kernels: + - * and the orderings.
    if let (Some(a), Some(b)) = (
        NumOp::from_view(lhs, num_rows),
        NumOp::from_view(rhs, num_rows),
    ) {
        match op {
            Add | Sub | Mul => {
                let column = if a.is_int() && b.is_int() {
                    let mut data = Vec::with_capacity(num_rows);
                    let mut validity = Bitmap::with_capacity(num_rows);
                    for i in 0..num_rows {
                        let valid = a.valid(i) && b.valid(i);
                        // The row rule computes int arithmetic through f64
                        // and casts back (saturating, 53-bit precision);
                        // mirror that exactly so both evaluation paths agree.
                        let (x, y) = (a.int_at(i) as f64, b.int_at(i) as f64);
                        data.push(match op {
                            Add => (x + y) as i64,
                            Sub => (x - y) as i64,
                            _ => (x * y) as i64,
                        });
                        validity.push(valid);
                    }
                    Column::Int64(data, validity)
                } else {
                    let mut data = Vec::with_capacity(num_rows);
                    let mut validity = Bitmap::with_capacity(num_rows);
                    for i in 0..num_rows {
                        let valid = a.valid(i) && b.valid(i);
                        let (x, y) = (a.float_at(i), b.float_at(i));
                        data.push(match op {
                            Add => x + y,
                            Sub => x - y,
                            _ => x * y,
                        });
                        validity.push(valid);
                    }
                    Column::Float64(data, validity)
                };
                return Ok(column);
            }
            Lt | LtEq | Gt | GtEq | Eq | NotEq => {
                let mut data = Vec::with_capacity(num_rows);
                let mut validity = Bitmap::with_capacity(num_rows);
                if a.is_int() && b.is_int() {
                    for i in 0..num_rows {
                        let valid = a.valid(i) && b.valid(i);
                        let (x, y) = (a.int_at(i), b.int_at(i));
                        data.push(int_cmp_result(op, x.cmp(&y)));
                        validity.push(valid);
                    }
                } else {
                    // sql_eq compares a mixed int/float pair with `==` but a
                    // float/float pair with total_cmp — mirror that exactly.
                    let mixed = a.is_int() != b.is_int();
                    for i in 0..num_rows {
                        let valid = a.valid(i) && b.valid(i);
                        let (x, y) = (a.float_at(i), b.float_at(i));
                        data.push(match op {
                            Eq if mixed => x == y,
                            NotEq if mixed => x != y,
                            _ => int_cmp_result(op, x.total_cmp(&y)),
                        });
                        validity.push(valid);
                    }
                }
                return Ok(Column::Bool(data, validity));
            }
            _ => {}
        }
    }

    // Typed string kernels: orderings, equality, and LIKE.
    if let Some(column) = eval_str_view(lhs, op, rhs, num_rows) {
        return Ok(column);
    }

    // The per-row rule keeps the exact dynamic-typing semantics (including
    // the per-row type errors the planner relies on observing).
    let mut out = ColumnBuilder::with_capacity(DataType::Null, num_rows);
    for i in 0..num_rows {
        out.push(eval_binary(lhs.cell(i), op, rhs.cell(i))?);
    }
    Ok(out.finish())
}

/// String kernels for the comparison operators and LIKE. Returns `None` when
/// neither shape applies (the caller runs the per-row rule).
fn eval_str_view(
    lhs: &ValuesView<'_>,
    op: BinaryOp,
    rhs: &ValuesView<'_>,
    num_rows: usize,
) -> Option<Column> {
    use BinaryOp::*;
    if !matches!(op, Lt | LtEq | Gt | GtEq | Eq | NotEq | Like) {
        return None;
    }
    let str_scalar = |view: &ValuesView<'_>| match view {
        ValuesView::Scalar(Value::Str(s)) => Some(Arc::clone(s)),
        _ => None,
    };
    // Column vs scalar — the common predicate shape (`movement = 'Baroque'`).
    // A LIKE pattern is lowercased once for the whole column.
    if let (Some(side), Some(s)) = (StrSide::from_view(lhs, num_rows), str_scalar(rhs)) {
        let mut pattern = (op == Like).then(|| LikePattern::new(&s));
        let mut holds = |v: &str| match &mut pattern {
            Some(pattern) => pattern.matches(v),
            None => int_cmp_result(op, v.cmp(s.as_ref())),
        };
        let mut out = Vec::with_capacity(num_rows);
        let mut validity = Bitmap::with_capacity(num_rows);
        match side {
            StrSide::Plain(data, bitmap) => {
                for (i, v) in data.iter().take(num_rows).enumerate() {
                    let valid = bitmap.is_valid(i);
                    out.push(valid && holds(v));
                    validity.push(valid);
                }
            }
            StrSide::Dict(codes, dict, bitmap) => {
                // Code-native kernel: one comparison (or LIKE match) per
                // dictionary *entry*, then a table lookup per row.
                let table: Vec<bool> = dict.iter().map(&mut holds).collect();
                for (i, &code) in codes.iter().enumerate() {
                    let valid = bitmap.is_valid(i);
                    out.push(valid && table[code as usize]);
                    validity.push(valid);
                }
            }
        }
        return Some(Column::Bool(out, validity));
    }
    // Column vs column.
    if let (Some(left), Some(right)) = (
        StrSide::from_view(lhs, num_rows),
        StrSide::from_view(rhs, num_rows),
    ) {
        let mut out = Vec::with_capacity(num_rows);
        let mut validity = Bitmap::with_capacity(num_rows);
        for i in 0..num_rows {
            let valid = left.valid(i) && right.valid(i);
            out.push(if valid {
                match op {
                    Like => like_match(left.str_at(i), right.str_at(i)),
                    _ => int_cmp_result(op, left.str_at(i).cmp(right.str_at(i))),
                }
            } else {
                false
            });
            validity.push(valid);
        }
        return Some(Column::Bool(out, validity));
    }
    None
}

/// Run a unary operator's or a scalar function's [`CellFn`] over argument
/// views: called per row on that row's argument cells, read in place. A
/// function with one result type writes that column's vector (a string
/// function, its byte buffer) and bitmap directly; every other packs its
/// results into a builder started at [`DataType::Null`]. Either way the
/// column is the one [`Column::from_values`] would build from the results
/// (`Null` when every row is NULL, `Mixed` when types differ). The first
/// error in row order stops the loop. `cell_fn` is an error when the
/// function takes no such argument count; that error, too, is raised only
/// when a row exists.
pub(super) fn eval_cell_fn(
    cell_fn: EngineResult<CellFn>,
    args: &[ValuesView<'_>],
    num_rows: usize,
) -> EngineResult<Column> {
    if num_rows == 0 {
        return Ok(Column::Null(0));
    }
    let column = match cell_fn? {
        CellFn::Int(f) => typed(args, num_rows, f, Column::Int64),
        CellFn::Float(f) => typed(args, num_rows, f, Column::Float64),
        CellFn::Bool(f) => typed(args, num_rows, f, Column::Bool),
        CellFn::Str(f) => {
            let mut data = Utf8Buffer::with_capacity(num_rows, str_bytes(args, num_rows));
            let mut validity = Bitmap::with_capacity(num_rows);
            let Ok(()) = each_row::<Infallible>(args, num_rows, |cells| {
                validity.push(data.push_with(|out| f(cells, out)));
                Ok(())
            });
            non_null(validity, num_rows, |validity| Column::Utf8(data, validity))
        }
        CellFn::Unary(f) => {
            let mut out = ColumnBuilder::with_capacity(DataType::Null, num_rows);
            each_row(args, num_rows, |cells| {
                out.push(f(cells[0])?);
                Ok(())
            })?;
            out.finish()
        }
        CellFn::Pick(pick) => {
            let mut out = ColumnBuilder::with_capacity(DataType::Null, num_rows);
            let Ok(()) = each_row::<Infallible>(args, num_rows, |cells| {
                out.push_cell(pick(cells).map_or(CellRef::Null, |at| cells[at]));
                Ok(())
            });
            out.finish()
        }
    };
    Ok(column)
}

/// Call `f` on each row's argument cells, read in place from the views, in
/// row order; the first error stops the loop.
fn each_row<E>(
    args: &[ValuesView<'_>],
    num_rows: usize,
    mut f: impl FnMut(&[CellRef<'_>]) -> Result<(), E>,
) -> Result<(), E> {
    match args {
        // A plain string column, the argument of the year and century
        // functions over an inception column, is read in slot order.
        [ValuesView::Col(Column::Utf8(data, validity))] => {
            let mut strings = data.iter().take(num_rows).enumerate();
            strings.try_for_each(|(i, s)| match validity.is_valid(i) {
                true => f(&[CellRef::Str(s)]),
                false => f(&[CellRef::Null]),
            })
        }
        [a] => (0..num_rows).try_for_each(|i| f(&[a.cell(i)])),
        [a, b] => (0..num_rows).try_for_each(|i| f(&[a.cell(i), b.cell(i)])),
        [a, b, c] => (0..num_rows).try_for_each(|i| f(&[a.cell(i), b.cell(i), c.cell(i)])),
        args => {
            let mut cells = Vec::with_capacity(args.len());
            (0..num_rows).try_for_each(|i| {
                cells.clear();
                cells.extend(args.iter().map(|arg| arg.cell(i)));
                f(&cells)
            })
        }
    }
}

/// A function with one result type `T`, run over every row into `T`'s
/// vector (a NULL row holds `T::default()`, the builder's placeholder) and
/// a bitmap, which `column` makes the column of.
fn typed<T: Copy + Default>(
    args: &[ValuesView<'_>],
    num_rows: usize,
    f: fn(&[CellRef<'_>]) -> Option<T>,
    column: fn(Vec<T>, Bitmap) -> Column,
) -> Column {
    let mut data = Vec::with_capacity(num_rows);
    let mut validity = Bitmap::with_capacity(num_rows);
    let Ok(()) = each_row::<Infallible>(args, num_rows, |cells| {
        let value = f(cells);
        data.push(value.unwrap_or_default());
        validity.push(value.is_some());
        Ok(())
    });
    non_null(validity, num_rows, |validity| column(data, validity))
}

/// The column `column` makes of `validity`, or [`Column::Null`] when none
/// of the `num_rows` rows is valid.
fn non_null(validity: Bitmap, num_rows: usize, column: impl FnOnce(Bitmap) -> Column) -> Column {
    if validity.count_valid() == 0 {
        Column::Null(num_rows)
    } else {
        column(validity)
    }
}

/// The bytes of the string columns among `args` over the batch's rows: the
/// size a string function's result buffer starts at, which fits the result
/// of a function that keeps its input's length (`UPPER` of ASCII, `LOWER`,
/// `CONCAT` of columns) without growing.
fn str_bytes(args: &[ValuesView<'_>], num_rows: usize) -> usize {
    let bytes = |arg: &ValuesView<'_>| match StrSide::from_view(arg, num_rows) {
        Some(StrSide::Plain(data, _)) => data.bytes_before(num_rows),
        Some(StrSide::Dict(codes, dict, _)) => codes
            .iter()
            .map(|&code| dict.get(code as usize).len())
            .sum(),
        None => 0,
    };
    args.iter().map(bytes).sum()
}

/// Put the parts of a column computed over disjoint row subsets back into
/// row order. Each part is a subset's rows, ascending, and its result over
/// them; together the parts cover `0..num_rows`. One builder packs the cells
/// as [`eval_cell_fn`]'s does.
pub(super) fn scatter(parts: &[(Vec<usize>, Batch)], num_rows: usize) -> Column {
    // Per row: which part holds its cell, and at what position.
    let mut source = vec![(0, 0); num_rows];
    for (part, (rows, _)) in parts.iter().enumerate() {
        for (at, &row) in rows.iter().enumerate() {
            source[row] = (part, at);
        }
    }
    let views: Vec<ValuesView<'_>> = parts.iter().map(|(_, batch)| batch.view()).collect();
    let mut out = ColumnBuilder::with_capacity(DataType::Null, num_rows);
    for (part, at) in source {
        out.push_cell(views[part].cell(at));
    }
    out.finish()
}
