//! Compiled expression pipelines.
//!
//! [`CompiledExpr::compile`] lowers an [`Expr`] tree into a tree of
//! pre-resolved kernel nodes once per batch, instead of re-interpreting the
//! AST:
//!
//! * column names are bound to positional indices (no `Schema::resolve`
//!   hash lookups on the hot path; unresolvable names become lazy error
//!   nodes so the error surfaces exactly where interpretation would raise
//!   it),
//! * constant subtrees are folded to a single pre-computed value — or a
//!   pre-computed error that is only raised if the node is actually
//!   demanded, preserving the laziness of `CASE` branches and `IN` items,
//! * the binary-operator kernels are monomorphized over the operand
//!   representations, including code-native kernels for dictionary-encoded
//!   string columns (one comparison per *dictionary entry* instead of one
//!   per row).
//!
//! The interpreted evaluator
//! ([`Expr::evaluate_batch_interpreted`](super::Expr::evaluate_batch_interpreted))
//! stays untouched as the reference; `tests/property_encoded.rs` proves the
//! compiled path byte-identical to it on randomized expression trees. Both
//! paths share the innermost operator kernels in this module, so the typed
//! loops cannot drift apart.

use super::{eval_binary, eval_func, eval_unary, int_cmp_result, like_match, Batch};
use super::{BinaryOp, Expr, ScalarFunc, UnaryOp};
use crate::column::{Bitmap, Column};
use crate::error::EngineResult;
use crate::schema::Schema;
use crate::value::Value;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Shared operand views and binary kernels
//
// Both the interpreted evaluator (`eval_binary_batch` in the parent module)
// and the compiled nodes below funnel into `eval_binary_view`, so there is
// exactly one implementation of every typed loop.
// ---------------------------------------------------------------------------

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

/// Evaluate a binary operation over two operand views — the single shared
/// kernel behind both the interpreted and the compiled evaluator. Uses typed
/// vector loops for numeric arithmetic/comparisons and string
/// comparisons/LIKE (with code-native dictionary kernels), and falls back to
/// element-wise [`eval_binary`] everywhere else.
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
        // Code-native equality when both sides index the same dictionary:
        // entries are duplicate-free, so equal codes ⇔ equal strings.
        if let (StrSide::Dict(lcodes, ldict, lbitmap), StrSide::Dict(rcodes, rdict, rbitmap)) =
            (&left, &right)
        {
            if matches!(op, Eq | NotEq) && Arc::ptr_eq(ldict, rdict) {
                let mut out = Vec::with_capacity(num_rows);
                let mut validity = Bitmap::new();
                for i in 0..num_rows {
                    let valid = lbitmap.is_valid(i) && rbitmap.is_valid(i);
                    let equal = lcodes[i] == rcodes[i];
                    out.push(valid && (equal == matches!(op, Eq)));
                    validity.push(valid);
                }
                return Some(Batch::Col(Arc::new(Column::Bool(out, validity))));
            }
        }
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

// ---------------------------------------------------------------------------
// The compiled node tree
// ---------------------------------------------------------------------------

/// A compiled expression node: column references bound to indices, constant
/// subtrees folded to their (lazily raised) results.
#[derive(Debug, Clone)]
enum Node {
    /// A pre-computed constant — or a pre-computed error, raised only when
    /// the node is actually demanded (so `CASE`/`IN` laziness is preserved).
    Const(EngineResult<Value>),
    /// A column reference bound to its positional index.
    Col(usize),
    /// A binary operation.
    Binary {
        left: Box<Node>,
        op: BinaryOp,
        right: Box<Node>,
    },
    /// A unary operation.
    Unary { op: UnaryOp, operand: Box<Node> },
    /// A scalar function call.
    Func { func: ScalarFunc, args: Vec<Node> },
    /// `expr IN (...)`, evaluated lazily per row (or per dictionary entry).
    InList {
        expr: Box<Node>,
        list: Vec<Node>,
        negated: bool,
    },
    /// `CASE WHEN ... END`, evaluated lazily per row.
    Case {
        branches: Vec<(Node, Node)>,
        otherwise: Option<Box<Node>>,
    },
}

/// The result of evaluating a compiled node over the input rows.
enum NodeBatch<'a> {
    /// A borrowed input column — zero-copy.
    View(&'a Column),
    /// A computed column of exactly the batch length.
    Col(Arc<Column>),
    /// One value standing for every row.
    Scalar(Value),
}

impl NodeBatch<'_> {
    #[inline]
    fn get(&self, i: usize) -> Value {
        match self {
            NodeBatch::View(col) => col.get(i),
            NodeBatch::Col(col) => col.get(i),
            NodeBatch::Scalar(v) => v.clone(),
        }
    }

    fn as_view(&self) -> ValuesView<'_> {
        match self {
            NodeBatch::View(col) => ValuesView::Col(col),
            NodeBatch::Col(col) => ValuesView::Col(col),
            NodeBatch::Scalar(v) => ValuesView::Scalar(v),
        }
    }
}

impl Node {
    fn is_constant(&self) -> bool {
        match self {
            Node::Const(_) => true,
            Node::Col(_) => false,
            Node::Binary { left, right, .. } => left.is_constant() && right.is_constant(),
            Node::Unary { operand, .. } => operand.is_constant(),
            Node::Func { args, .. } => args.iter().all(Node::is_constant),
            // IN and CASE are evaluated strictly per-row by the interpreter,
            // which also means a parent of a constant IN/CASE sees a column
            // batch, not a scalar — so constant-ness stops here. Treating
            // them (or their parents) as foldable would pre-raise errors no
            // row demanded (zero rows, short-circuited items, untaken
            // branches).
            Node::InList { .. } | Node::Case { .. } => false,
        }
    }

    /// Evaluate the node at one absolute row — the compiled mirror of
    /// [`Expr::evaluate_at`], used for the lazily evaluated constructs and
    /// for constant folding (where `columns` is empty and never read).
    fn eval_row(&self, columns: &[Arc<Column>], i: usize) -> EngineResult<Value> {
        match self {
            Node::Const(result) => result.clone(),
            Node::Col(idx) => Ok(columns[*idx].get(i)),
            Node::Binary { left, op, right } => {
                let lhs = left.eval_row(columns, i)?;
                let rhs = right.eval_row(columns, i)?;
                eval_binary(&lhs, *op, &rhs)
            }
            Node::Unary { op, operand } => {
                let value = operand.eval_row(columns, i)?;
                eval_unary(*op, &value)
            }
            Node::Func { func, args } => {
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(arg.eval_row(columns, i)?);
                }
                eval_func(*func, &values)
            }
            Node::InList {
                expr,
                list,
                negated,
            } => {
                let needle = expr.eval_row(columns, i)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                in_list_scan(&needle, list, *negated, columns, i)
            }
            Node::Case {
                branches,
                otherwise,
            } => {
                for (cond, result) in branches {
                    if cond.eval_row(columns, i)?.as_bool() == Some(true) {
                        return result.eval_row(columns, i);
                    }
                }
                match otherwise {
                    Some(e) => e.eval_row(columns, i),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    /// Evaluate the node over the first `num_rows` rows of the input columns.
    fn eval_batch<'a>(
        &self,
        columns: &'a [Arc<Column>],
        num_rows: usize,
    ) -> EngineResult<NodeBatch<'a>> {
        match self {
            Node::Const(result) => result.clone().map(NodeBatch::Scalar),
            Node::Col(idx) => Ok(NodeBatch::View(columns[*idx].as_ref())),
            Node::Binary { left, op, right } => {
                let lhs = left.eval_batch(columns, num_rows)?;
                let rhs = right.eval_batch(columns, num_rows)?;
                match eval_binary_view(&lhs.as_view(), *op, &rhs.as_view(), num_rows)? {
                    Batch::Col(col) => Ok(NodeBatch::Col(col)),
                    Batch::Scalar(v) => Ok(NodeBatch::Scalar(v)),
                }
            }
            Node::Unary { op, operand } => match operand.eval_batch(columns, num_rows)? {
                NodeBatch::Scalar(v) => Ok(NodeBatch::Scalar(eval_unary(*op, &v)?)),
                batch => {
                    let mut out = Vec::with_capacity(num_rows);
                    for i in 0..num_rows {
                        out.push(eval_unary(*op, &batch.get(i))?);
                    }
                    Ok(NodeBatch::Col(Arc::new(Column::from_values(out))))
                }
            },
            Node::Func { func, args } => {
                let mut batches = Vec::with_capacity(args.len());
                for arg in args {
                    batches.push(arg.eval_batch(columns, num_rows)?);
                }
                if batches.iter().all(|b| matches!(b, NodeBatch::Scalar(_))) {
                    let argv: Vec<Value> = batches.iter().map(|b| b.get(0)).collect();
                    return Ok(NodeBatch::Scalar(eval_func(*func, &argv)?));
                }
                let mut out = Vec::with_capacity(num_rows);
                let mut argv = Vec::with_capacity(batches.len());
                for i in 0..num_rows {
                    argv.clear();
                    for batch in &batches {
                        argv.push(batch.get(i));
                    }
                    out.push(eval_func(*func, &argv)?);
                }
                Ok(NodeBatch::Col(Arc::new(Column::from_values(out))))
            }
            Node::InList {
                expr,
                list,
                negated,
            } => {
                // Code-native IN: when the needle is a dictionary-encoded
                // column and every list item is a constant, the scan result
                // depends only on the needle's *entry* — memoize one lazy
                // item scan per entry instead of one per row. Entries (and
                // erroring items) that no scanned row demands are never
                // evaluated, exactly like the row-at-a-time path.
                if let Node::Col(idx) = expr.as_ref() {
                    if let Column::Dict {
                        codes,
                        dict,
                        bitmap,
                    } = columns[*idx].as_ref()
                    {
                        if list.iter().all(|item| matches!(item, Node::Const(_))) {
                            let mut memo: Vec<Option<EngineResult<Value>>> = vec![None; dict.len()];
                            let mut out = Vec::with_capacity(num_rows);
                            for (i, &code) in codes[..num_rows].iter().enumerate() {
                                if bitmap.is_valid(i) {
                                    let code = code as usize;
                                    let result = memo[code].get_or_insert_with(|| {
                                        let needle = Value::Str(Arc::clone(&dict[code]));
                                        in_list_scan(&needle, list, *negated, columns, i)
                                    });
                                    out.push(result.clone()?);
                                } else {
                                    out.push(Value::Null);
                                }
                            }
                            return Ok(NodeBatch::Col(Arc::new(Column::from_values(out))));
                        }
                    }
                }
                self.eval_rows(columns, num_rows)
            }
            Node::Case { .. } => self.eval_rows(columns, num_rows),
        }
    }

    /// Row-at-a-time evaluation — for the constructs whose branches/items
    /// must only be evaluated as far as each row needs them.
    fn eval_rows<'a>(
        &self,
        columns: &[Arc<Column>],
        num_rows: usize,
    ) -> EngineResult<NodeBatch<'a>> {
        let mut out = Vec::with_capacity(num_rows);
        for i in 0..num_rows {
            out.push(self.eval_row(columns, i)?);
        }
        Ok(NodeBatch::Col(Arc::new(Column::from_values(out))))
    }
}

/// Scan IN-list items for `needle` (non-NULL), stopping at the first match —
/// the shared lazy scan of the per-row and per-entry paths.
fn in_list_scan(
    needle: &Value,
    list: &[Node],
    negated: bool,
    columns: &[Arc<Column>],
    i: usize,
) -> EngineResult<Value> {
    let mut found = false;
    for item in list {
        let candidate = item.eval_row(columns, i)?;
        if needle.sql_eq(&candidate) == Some(true) {
            found = true;
            break;
        }
    }
    Ok(Value::Bool(found != negated))
}

/// An [`Expr`] lowered to pre-resolved kernel nodes (see the module docs).
/// Compile once per batch, then evaluate it over the shared input columns.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    root: Node,
}

impl CompiledExpr {
    /// Lower `expr` against `schema`: bind column indices, fold constant
    /// subtrees. Compilation never fails — unresolvable column names become
    /// lazy error nodes so the error surfaces exactly where the interpreted
    /// evaluator would raise it.
    pub fn compile(expr: &Expr, schema: &Schema) -> CompiledExpr {
        CompiledExpr {
            root: lower(expr, schema),
        }
    }

    /// Evaluate over the first `num_rows` rows of the input columns,
    /// producing a column of `num_rows` rows. The inputs are read in place.
    pub fn evaluate(&self, columns: &[Arc<Column>], num_rows: usize) -> EngineResult<Arc<Column>> {
        match self.root.eval_batch(columns, num_rows)? {
            NodeBatch::Col(col) => Ok(col),
            NodeBatch::View(col) => Ok(Arc::new(col.slice(0..num_rows))),
            NodeBatch::Scalar(v) => Ok(Arc::new(Column::from_values(vec![v; num_rows]))),
        }
    }

    /// Evaluate as a predicate over the first `num_rows` rows and return the
    /// selected row indices (NULL = not selected).
    pub fn selection(&self, columns: &[Arc<Column>], num_rows: usize) -> EngineResult<Vec<usize>> {
        let batch = self.root.eval_batch(columns, num_rows)?;
        let col = match &batch {
            NodeBatch::Scalar(v) => {
                return Ok(if v.as_bool() == Some(true) {
                    (0..num_rows).collect()
                } else {
                    Vec::new()
                });
            }
            NodeBatch::View(col) => *col,
            NodeBatch::Col(col) => col.as_ref(),
        };
        let mut selected = Vec::new();
        if let Some((data, validity)) = col.as_bools() {
            for (i, &b) in data[..num_rows].iter().enumerate() {
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

/// Lower one expression node, folding constant subtrees bottom-up.
fn lower(expr: &Expr, schema: &Schema) -> Node {
    let node = match expr {
        Expr::Literal(value) => Node::Const(Ok(value.clone())),
        Expr::Column(name) => match schema.resolve(name) {
            Ok(idx) => Node::Col(idx),
            Err(e) => Node::Const(Err(e)),
        },
        Expr::Binary { left, op, right } => Node::Binary {
            left: Box::new(lower(left, schema)),
            op: *op,
            right: Box::new(lower(right, schema)),
        },
        Expr::Unary { op, operand } => Node::Unary {
            op: *op,
            operand: Box::new(lower(operand, schema)),
        },
        Expr::Func { func, args } => Node::Func {
            func: *func,
            args: args.iter().map(|a| lower(a, schema)).collect(),
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Node::InList {
            expr: Box::new(lower(expr, schema)),
            list: list.iter().map(|a| lower(a, schema)).collect(),
            negated: *negated,
        },
        Expr::Case {
            branches,
            otherwise,
        } => Node::Case {
            branches: branches
                .iter()
                .map(|(c, r)| (lower(c, schema), lower(r, schema)))
                .collect(),
            otherwise: otherwise.as_ref().map(|e| Box::new(lower(e, schema))),
        },
    };
    match node {
        // Already folded (or a leaf).
        Node::Const(_) | Node::Col(_) => node,
        // A composite with only constant inputs evaluates to the same
        // (lazily raised) result for every row — the interpreter applies
        // scalar unary/func/binary kernels eagerly too, independent of the
        // row count — so fold it now. The row index and columns are never
        // read by a constant tree. (`is_constant` deliberately excludes
        // IN/CASE, which the interpreter keeps strictly per-row.)
        node if node.is_constant() => Node::Const(node.eval_row(&[], 0)),
        node => node,
    }
}
