//! The typed binary-operator kernels behind [`Expr::evaluate_batch`] and
//! [`Expr::selection_vector`](super::Expr::selection_vector).
//!
//! [`eval_binary_view`] runs typed numeric loops, and string compare/`LIKE`
//! loops over plain or dictionary-encoded columns. A dictionary column
//! compared with a string literal runs one comparison per *dictionary entry*
//! instead of one per row; every other construct over a dictionary column
//! (`IN` lists, column-vs-column compares) reads its strings row by row.
//! Everything else falls back to the element-wise [`eval_binary`], which
//! keeps the exact dynamic-typing semantics of the row evaluator.
//!
//! [`Expr::evaluate_batch`]: super::Expr::evaluate_batch

use super::{eval_binary, int_cmp_result, like_match, Batch, BinaryOp};
use crate::column::{Bitmap, Column};
use crate::error::EngineResult;
use crate::value::Value;
use std::sync::Arc;

/// A binary-kernel operand: a borrowed column (zero-copy), or a scalar
/// broadcast across the batch.
pub(super) enum ValuesView<'a> {
    /// A whole column; the kernel reads its first `num_rows` rows.
    Col(&'a Column),
    /// One value standing for every row.
    Scalar(&'a Value),
}

impl ValuesView<'_> {
    #[inline]
    fn get(&self, i: usize) -> Value {
        match self {
            ValuesView::Col(col) => col.get(i),
            ValuesView::Scalar(v) => (*v).clone(),
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

/// A string-column operand: plain UTF-8 or dictionary-encoded, its data
/// sliced to the batch, with its validity bitmap.
enum StrSide<'a> {
    Plain(&'a [Arc<str>], &'a Bitmap),
    Dict(&'a [u32], &'a Arc<Vec<Arc<str>>>, &'a Bitmap),
}

impl StrSide<'_> {
    fn from_view<'a>(view: &ValuesView<'a>, len: usize) -> Option<StrSide<'a>> {
        match view {
            ValuesView::Col(col) => match col {
                Column::Utf8(v, b) => Some(StrSide::Plain(&v[..len], b)),
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
            StrSide::Plain(v, ..) => v[i].as_ref(),
            StrSide::Dict(codes, dict, ..) => dict[codes[i] as usize].as_ref(),
        }
    }
}

/// Evaluate a binary operation over two operand views. Uses typed
/// vector loops for numeric arithmetic/comparisons and string
/// comparisons/LIKE (with a code-native kernel for a dictionary column
/// against a string literal), and falls back to element-wise
/// [`eval_binary`] everywhere else.
pub(super) fn eval_binary_view(
    lhs: &ValuesView<'_>,
    op: BinaryOp,
    rhs: &ValuesView<'_>,
    num_rows: usize,
) -> EngineResult<Batch> {
    use BinaryOp::*;
    if let (ValuesView::Scalar(a), ValuesView::Scalar(b)) = (lhs, rhs) {
        return Ok(Batch::Scalar(eval_binary(a, op, b)?));
    }

    // Typed numeric kernels: + - * and the orderings.
    if let (Some(a), Some(b)) = (
        NumOp::from_view(lhs, num_rows),
        NumOp::from_view(rhs, num_rows),
    ) {
        match op {
            Add | Sub | Mul => {
                let column = if a.is_int() && b.is_int() {
                    let mut data = Vec::with_capacity(num_rows);
                    let mut validity = Bitmap::new();
                    for i in 0..num_rows {
                        let valid = a.valid(i) && b.valid(i);
                        // The row engine computes int arithmetic through f64
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
                    let mut validity = Bitmap::new();
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
                return Ok(Batch::Col(Arc::new(column)));
            }
            Lt | LtEq | Gt | GtEq | Eq | NotEq => {
                let mut data = Vec::with_capacity(num_rows);
                let mut validity = Bitmap::new();
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
                return Ok(Batch::Col(Arc::new(Column::Bool(data, validity))));
            }
            _ => {}
        }
    }

    // Typed string kernels: orderings, equality, and LIKE.
    if let Some(batch) = eval_str_view(lhs, op, rhs, num_rows) {
        return Ok(batch);
    }

    // Element-wise fallback preserves the exact dynamic-typing semantics
    // (including the per-row type errors the planner relies on observing).
    let mut out = Vec::with_capacity(num_rows);
    for i in 0..num_rows {
        out.push(eval_binary(&lhs.get(i), op, &rhs.get(i))?);
    }
    Ok(Batch::Col(Arc::new(Column::from_values(out))))
}

/// String kernels for the comparison operators and LIKE. Returns `None` when
/// neither shape applies (the caller falls back to element-wise evaluation).
fn eval_str_view(
    lhs: &ValuesView<'_>,
    op: BinaryOp,
    rhs: &ValuesView<'_>,
    num_rows: usize,
) -> Option<Batch> {
    use BinaryOp::*;
    if !matches!(op, Lt | LtEq | Gt | GtEq | Eq | NotEq | Like) {
        return None;
    }
    let str_scalar = |view: &ValuesView<'_>| match view {
        ValuesView::Scalar(Value::Str(s)) => Some(Arc::clone(s)),
        _ => None,
    };
    // Column vs scalar — the common predicate shape (`movement = 'Baroque'`).
    if let (Some(side), Some(s)) = (StrSide::from_view(lhs, num_rows), str_scalar(rhs)) {
        let column = match side {
            StrSide::Plain(data, bitmap) => {
                let mut out = Vec::with_capacity(num_rows);
                let mut validity = Bitmap::new();
                for (i, v) in data.iter().enumerate() {
                    let valid = bitmap.is_valid(i);
                    out.push(if valid {
                        match op {
                            Like => like_match(v, &s),
                            _ => int_cmp_result(op, v.as_ref().cmp(s.as_ref())),
                        }
                    } else {
                        false
                    });
                    validity.push(valid);
                }
                Column::Bool(out, validity)
            }
            StrSide::Dict(codes, dict, bitmap) => {
                // Code-native kernel: one comparison (or LIKE match) per
                // dictionary *entry*, then a table lookup per row.
                let table: Vec<bool> = dict
                    .iter()
                    .map(|entry| match op {
                        Like => like_match(entry, &s),
                        _ => int_cmp_result(op, entry.as_ref().cmp(s.as_ref())),
                    })
                    .collect();
                let mut out = Vec::with_capacity(num_rows);
                let mut validity = Bitmap::new();
                for (i, &code) in codes.iter().enumerate() {
                    let valid = bitmap.is_valid(i);
                    out.push(valid && table[code as usize]);
                    validity.push(valid);
                }
                Column::Bool(out, validity)
            }
        };
        return Some(Batch::Col(Arc::new(column)));
    }
    // Column vs column.
    if let (Some(left), Some(right)) = (
        StrSide::from_view(lhs, num_rows),
        StrSide::from_view(rhs, num_rows),
    ) {
        let mut out = Vec::with_capacity(num_rows);
        let mut validity = Bitmap::new();
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
        return Some(Batch::Col(Arc::new(Column::Bool(out, validity))));
    }
    None
}
