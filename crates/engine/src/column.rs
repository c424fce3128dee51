//! Typed, immutable columns with validity bitmaps.
//!
//! A [`Column`] is the unit of storage in the columnar [`Table`](crate::table::Table)
//! layout: one contiguous, typed vector per table column plus a [`Bitmap`]
//! marking which slots hold non-NULL values. Columns are shared between tables
//! behind `Arc`, so projections, catalog lookups, and the intermediate results
//! of the interleaved planner never deep-copy cell data.
//!
//! The engine is dynamically typed (the SQLite heritage described in
//! [`value`](crate::value)), so a column whose cells do not share one runtime
//! type degrades gracefully to the [`Column::Mixed`] representation instead of
//! failing: correctness first, the typed fast paths kick in whenever the data
//! allows it.

use crate::value::{DataType, DateValue, Value};
use std::sync::Arc;

/// A validity bitmap: bit `i` is set iff slot `i` holds a non-NULL value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    unset: usize,
}

impl Bitmap {
    /// An all-valid bitmap of the given length.
    pub fn all_valid(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        // Keep the bits beyond `len` zero so the derived equality agrees with
        // bitmaps built bit-by-bit via `push`.
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = u64::MAX >> (64 - len % 64);
            }
        }
        Bitmap {
            words,
            len,
            unset: 0,
        }
    }

    /// An empty bitmap to push validity bits into.
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// Append one validity bit.
    pub fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1 << (self.len % 64);
        } else {
            self.unset += 1;
        }
        self.len += 1;
    }

    /// Whether slot `i` is valid (non-NULL).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of valid (non-NULL) slots.
    pub fn count_valid(&self) -> usize {
        self.len - self.unset
    }

    /// Whether every slot is valid — lets kernels skip NULL checks entirely.
    pub fn is_all_valid(&self) -> bool {
        self.unset == 0
    }

    /// The validity bits of `range`, as a new bitmap.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bitmap {
        if self.is_all_valid() {
            return Bitmap::all_valid(range.len());
        }
        let mut out = Bitmap::new();
        for i in range {
            out.push(self.is_valid(i));
        }
        out
    }

    /// Append every bit of `other`, a word at a time (the merge step of
    /// [`Column::concat`]; when `self`'s length is a multiple of 64 this is a
    /// plain word copy).
    pub fn append(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            // Bits beyond either bitmap's `len` are zero, so OR-ing the
            // shifted words in never disturbs a slot that is already set.
            for &word in &other.words {
                *self.words.last_mut().expect("shift != 0 implies a word") |= word << shift;
                self.words.push(word >> (64 - shift));
            }
            self.words.truncate((self.len + other.len).div_ceil(64));
        }
        self.len += other.len;
        self.unset += other.unset;
    }

    /// Gather the bits at `indices` into a new bitmap.
    pub fn take(&self, indices: &[usize]) -> Bitmap {
        if self.is_all_valid() {
            return Bitmap::all_valid(indices.len());
        }
        let mut out = Bitmap::new();
        for &i in indices {
            out.push(self.is_valid(i));
        }
        out
    }
}

/// An immutable, typed column of values.
///
/// String-like variants store `Arc<str>` payloads, so gathering and sharing
/// them bumps reference counts instead of copying characters.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Booleans.
    Bool(Vec<bool>, Bitmap),
    /// 64-bit integers.
    Int64(Vec<i64>, Bitmap),
    /// 64-bit floats.
    Float64(Vec<f64>, Bitmap),
    /// UTF-8 strings.
    Utf8(Vec<Arc<str>>, Bitmap),
    /// Calendar dates.
    Date(Vec<DateValue>, Bitmap),
    /// Image references (keys into an image store).
    Image(Vec<Arc<str>>, Bitmap),
    /// Inline text documents.
    Text(Vec<Arc<str>>, Bitmap),
    /// Dictionary-encoded UTF-8 strings: `codes[i]` indexes into the shared,
    /// duplicate-free `dict` entry table. Built at table ingest by
    /// [`crate::dict::encode_column`] for low-cardinality string columns;
    /// behaves exactly like [`Column::Utf8`] at the [`Value`] level while the
    /// operator fast paths work on the integer codes directly.
    Dict {
        /// Per-row entry indices (invalid slots hold 0, masked by `bitmap`).
        codes: Vec<u32>,
        /// The shared entry table, in first-appearance order.
        dict: Arc<Vec<Arc<str>>>,
        /// Validity bitmap.
        bitmap: Bitmap,
    },
    /// An all-NULL column of the given length.
    Null(usize),
    /// Heterogeneously typed cells — the dynamic-typing escape hatch.
    Mixed(Vec<Value>),
}

impl Column {
    /// An empty column of the representation matching `data_type`.
    pub fn empty(data_type: DataType) -> Column {
        match data_type {
            DataType::Bool => Column::Bool(Vec::new(), Bitmap::new()),
            DataType::Int => Column::Int64(Vec::new(), Bitmap::new()),
            DataType::Float => Column::Float64(Vec::new(), Bitmap::new()),
            DataType::Str => Column::Utf8(Vec::new(), Bitmap::new()),
            DataType::Date => Column::Date(Vec::new(), Bitmap::new()),
            DataType::Image => Column::Image(Vec::new(), Bitmap::new()),
            DataType::Text => Column::Text(Vec::new(), Bitmap::new()),
            DataType::Null => Column::Null(0),
        }
    }

    /// Pack a vector of dynamically typed values into the tightest column
    /// representation: a typed vector if all non-NULL values share one runtime
    /// type, [`Column::Null`] if everything is NULL, [`Column::Mixed`] otherwise.
    pub fn from_values(values: Vec<Value>) -> Column {
        let mut tag: Option<DataType> = None;
        for v in &values {
            if v.is_null() {
                continue;
            }
            match tag {
                None => tag = Some(v.data_type()),
                Some(t) if t == v.data_type() => {}
                Some(_) => return Column::Mixed(values),
            }
        }
        let Some(tag) = tag else {
            return Column::Null(values.len());
        };
        let mut builder = ColumnBuilder::with_capacity(tag, values.len());
        for v in values {
            builder.push(v);
        }
        builder.finish()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v, _) => v.len(),
            Column::Int64(v, _) => v.len(),
            Column::Float64(v, _) => v.len(),
            Column::Utf8(v, _) | Column::Image(v, _) | Column::Text(v, _) => v.len(),
            Column::Date(v, _) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
            Column::Null(n) => *n,
            Column::Mixed(v) => v.len(),
        }
    }

    /// Whether the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage type of the column ([`DataType::Null`] for all-NULL and
    /// mixed columns, whose runtime types vary per cell).
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool(..) => DataType::Bool,
            Column::Int64(..) => DataType::Int,
            Column::Float64(..) => DataType::Float,
            Column::Utf8(..) | Column::Dict { .. } => DataType::Str,
            Column::Date(..) => DataType::Date,
            Column::Image(..) => DataType::Image,
            Column::Text(..) => DataType::Text,
            Column::Null(_) | Column::Mixed(_) => DataType::Null,
        }
    }

    /// Whether slot `i` holds a non-NULL value.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            Column::Bool(_, b)
            | Column::Int64(_, b)
            | Column::Float64(_, b)
            | Column::Utf8(_, b)
            | Column::Date(_, b)
            | Column::Image(_, b)
            | Column::Text(_, b) => b.is_valid(i),
            Column::Dict { bitmap, .. } => bitmap.is_valid(i),
            Column::Null(_) => false,
            Column::Mixed(v) => !v[i].is_null(),
        }
    }

    /// Materialize the value at slot `i`. String payloads are `Arc`-shared,
    /// so this is cheap for every variant.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Bool(v, b) => {
                if b.is_valid(i) {
                    Value::Bool(v[i])
                } else {
                    Value::Null
                }
            }
            Column::Int64(v, b) => {
                if b.is_valid(i) {
                    Value::Int(v[i])
                } else {
                    Value::Null
                }
            }
            Column::Float64(v, b) => {
                if b.is_valid(i) {
                    Value::Float(v[i])
                } else {
                    Value::Null
                }
            }
            Column::Utf8(v, b) => {
                if b.is_valid(i) {
                    Value::Str(Arc::clone(&v[i]))
                } else {
                    Value::Null
                }
            }
            Column::Date(v, b) => {
                if b.is_valid(i) {
                    Value::Date(v[i].clone())
                } else {
                    Value::Null
                }
            }
            Column::Image(v, b) => {
                if b.is_valid(i) {
                    Value::Image(Arc::clone(&v[i]))
                } else {
                    Value::Null
                }
            }
            Column::Text(v, b) => {
                if b.is_valid(i) {
                    Value::Text(Arc::clone(&v[i]))
                } else {
                    Value::Null
                }
            }
            Column::Dict {
                codes,
                dict,
                bitmap,
            } => {
                if bitmap.is_valid(i) {
                    Value::Str(Arc::clone(&dict[codes[i] as usize]))
                } else {
                    Value::Null
                }
            }
            Column::Null(_) => Value::Null,
            Column::Mixed(v) => v[i].clone(),
        }
    }

    /// Iterate over the column's values (materialized one at a time).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Materialize every value.
    pub fn to_values(&self) -> Vec<Value> {
        self.iter().collect()
    }

    /// Typed view of an integer column: `(data, validity)`.
    pub fn as_int64(&self) -> Option<(&[i64], &Bitmap)> {
        match self {
            Column::Int64(v, b) => Some((v, b)),
            _ => None,
        }
    }

    /// Typed view of a boolean column: `(data, validity)`.
    pub fn as_bools(&self) -> Option<(&[bool], &Bitmap)> {
        match self {
            Column::Bool(v, b) => Some((v, b)),
            _ => None,
        }
    }

    /// Typed view of a string column: `(data, validity)`.
    pub fn as_utf8(&self) -> Option<(&[Arc<str>], &Bitmap)> {
        match self {
            Column::Utf8(v, b) => Some((v, b)),
            _ => None,
        }
    }

    /// Typed view of a dictionary-encoded string column:
    /// `(codes, entries, validity)`.
    #[allow(clippy::type_complexity)]
    pub fn as_dict(&self) -> Option<(&[u32], &Arc<Vec<Arc<str>>>, &Bitmap)> {
        match self {
            Column::Dict {
                codes,
                dict,
                bitmap,
            } => Some((codes, dict, bitmap)),
            _ => None,
        }
    }

    /// Copy the slots of `range` into a new column, **preserving the storage
    /// representation** (a sliced `Mixed` column stays `Mixed`, placeholder
    /// values in invalid slots are copied verbatim), so a slice takes exactly
    /// the code path the full column would.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Column {
        /// Every `(data, bitmap)` representation slices through this one
        /// helper, so no variant can drift from the
        /// representation-preservation contract.
        fn sliced<T: Clone>(
            data: &[T],
            bitmap: &Bitmap,
            range: std::ops::Range<usize>,
        ) -> (Vec<T>, Bitmap) {
            (data[range.clone()].to_vec(), bitmap.slice(range))
        }
        match self {
            Column::Bool(v, b) => {
                let (v, b) = sliced(v, b, range);
                Column::Bool(v, b)
            }
            Column::Int64(v, b) => {
                let (v, b) = sliced(v, b, range);
                Column::Int64(v, b)
            }
            Column::Float64(v, b) => {
                let (v, b) = sliced(v, b, range);
                Column::Float64(v, b)
            }
            Column::Utf8(v, b) => {
                let (v, b) = sliced(v, b, range);
                Column::Utf8(v, b)
            }
            Column::Date(v, b) => {
                let (v, b) = sliced(v, b, range);
                Column::Date(v, b)
            }
            Column::Image(v, b) => {
                let (v, b) = sliced(v, b, range);
                Column::Image(v, b)
            }
            Column::Text(v, b) => {
                let (v, b) = sliced(v, b, range);
                Column::Text(v, b)
            }
            Column::Dict {
                codes,
                dict,
                bitmap,
            } => {
                let (codes, bitmap) = sliced(codes, bitmap, range);
                Column::Dict {
                    codes,
                    dict: Arc::clone(dict),
                    bitmap,
                }
            }
            Column::Null(_) => Column::Null(range.len()),
            Column::Mixed(v) => Column::Mixed(v[range].to_vec()),
        }
    }

    /// Gather the slots at `indices` into a new column (the "take" kernel).
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Bool(v, b) => {
                Column::Bool(indices.iter().map(|&i| v[i]).collect(), b.take(indices))
            }
            Column::Int64(v, b) => {
                Column::Int64(indices.iter().map(|&i| v[i]).collect(), b.take(indices))
            }
            Column::Float64(v, b) => {
                Column::Float64(indices.iter().map(|&i| v[i]).collect(), b.take(indices))
            }
            Column::Utf8(v, b) => Column::Utf8(
                indices.iter().map(|&i| Arc::clone(&v[i])).collect(),
                b.take(indices),
            ),
            Column::Date(v, b) => Column::Date(
                indices.iter().map(|&i| v[i].clone()).collect(),
                b.take(indices),
            ),
            Column::Image(v, b) => Column::Image(
                indices.iter().map(|&i| Arc::clone(&v[i])).collect(),
                b.take(indices),
            ),
            Column::Text(v, b) => Column::Text(
                indices.iter().map(|&i| Arc::clone(&v[i])).collect(),
                b.take(indices),
            ),
            Column::Dict {
                codes,
                dict,
                bitmap,
            } => Column::Dict {
                codes: indices.iter().map(|&i| codes[i]).collect(),
                dict: Arc::clone(dict),
                bitmap: bitmap.take(indices),
            },
            Column::Null(_) => Column::Null(indices.len()),
            Column::Mixed(v) => {
                Column::from_values(indices.iter().map(|&i| v[i].clone()).collect())
            }
        }
    }

    /// Gather with optional indices: `None` slots become NULL. Used by the
    /// probe side of left-outer joins. Typed columns stay typed (the padded
    /// slots are marked invalid); only mixed columns round-trip through
    /// [`Value`]s.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> Column {
        macro_rules! take_opt_typed {
            ($variant:ident, $data:ident, $bitmap:ident, $null:expr, $copy:expr) => {{
                let mut out = Vec::with_capacity(indices.len());
                let mut validity = Bitmap::new();
                for idx in indices {
                    match idx {
                        Some(i) => {
                            #[allow(clippy::redundant_closure_call)]
                            out.push($copy(&$data[*i]));
                            validity.push($bitmap.is_valid(*i));
                        }
                        None => {
                            out.push($null);
                            validity.push(false);
                        }
                    }
                }
                Column::$variant(out, validity)
            }};
        }
        match self {
            Column::Bool(v, b) => take_opt_typed!(Bool, v, b, false, |x: &bool| *x),
            Column::Int64(v, b) => take_opt_typed!(Int64, v, b, 0, |x: &i64| *x),
            Column::Float64(v, b) => take_opt_typed!(Float64, v, b, 0.0, |x: &f64| *x),
            Column::Utf8(v, b) => {
                take_opt_typed!(Utf8, v, b, Arc::from(""), |x: &Arc<str>| Arc::clone(x))
            }
            Column::Date(v, b) => {
                take_opt_typed!(Date, v, b, DateValue::from_year(0), |x: &DateValue| x
                    .clone())
            }
            Column::Image(v, b) => {
                take_opt_typed!(Image, v, b, Arc::from(""), |x: &Arc<str>| Arc::clone(x))
            }
            Column::Text(v, b) => {
                take_opt_typed!(Text, v, b, Arc::from(""), |x: &Arc<str>| Arc::clone(x))
            }
            Column::Dict {
                codes,
                dict,
                bitmap,
            } => {
                let mut out = Vec::with_capacity(indices.len());
                let mut validity = Bitmap::new();
                for idx in indices {
                    match idx {
                        Some(i) => {
                            out.push(codes[*i]);
                            validity.push(bitmap.is_valid(*i));
                        }
                        None => {
                            out.push(0);
                            validity.push(false);
                        }
                    }
                }
                Column::Dict {
                    codes: out,
                    dict: Arc::clone(dict),
                    bitmap: validity,
                }
            }
            Column::Null(_) => Column::Null(indices.len()),
            Column::Mixed(v) => Column::from_values(
                indices
                    .iter()
                    .map(|i| match i {
                        Some(i) => v[*i].clone(),
                        None => Value::Null,
                    })
                    .collect(),
            ),
        }
    }

    /// Concatenate columns end to end (UNION ALL). Parts sharing one typed representation are
    /// **moved** into the first part's buffers — no per-cell clone, validity
    /// appended a word at a time; mixed-representation inputs fall back to
    /// value-level packing.
    pub fn concat(parts: Vec<Column>) -> Column {
        let total: usize = parts.iter().map(|c| c.len()).sum();
        let uniform = match parts.first() {
            None | Some(Column::Null(_) | Column::Mixed(_)) => false,
            // Parts sharing one entry table (slices of the same column)
            // stay dictionary-encoded; mismatched dictionaries fall
            // through to value-level packing (plain strings), the same
            // result a plain-Utf8 concat would produce.
            Some(Column::Dict { dict: first, .. }) => parts
                .iter()
                .all(|p| matches!(p, Column::Dict { dict, .. } if Arc::ptr_eq(dict, first))),
            Some(first) => parts
                .iter()
                .all(|p| std::mem::discriminant(p) == std::mem::discriminant(first)),
        };
        if !uniform {
            let mut values = Vec::with_capacity(total);
            for part in &parts {
                values.extend(part.iter());
            }
            return Column::from_values(values);
        }
        fn append<T>(into: (&mut Vec<T>, &mut Bitmap), mut from: (Vec<T>, Bitmap), total: usize) {
            into.0.reserve(total - into.0.len());
            into.0.append(&mut from.0);
            into.1.append(&from.1);
        }
        let mut parts = parts.into_iter();
        let mut merged = parts.next().expect("uniform implies a first part");
        for part in parts {
            match (&mut merged, part) {
                (Column::Bool(v, b), Column::Bool(ov, ob)) => append((v, b), (ov, ob), total),
                (Column::Int64(v, b), Column::Int64(ov, ob)) => append((v, b), (ov, ob), total),
                (Column::Float64(v, b), Column::Float64(ov, ob)) => append((v, b), (ov, ob), total),
                (Column::Date(v, b), Column::Date(ov, ob)) => append((v, b), (ov, ob), total),
                (Column::Utf8(v, b), Column::Utf8(ov, ob))
                | (Column::Image(v, b), Column::Image(ov, ob))
                | (Column::Text(v, b), Column::Text(ov, ob)) => append((v, b), (ov, ob), total),
                (
                    Column::Dict { codes, bitmap, .. },
                    Column::Dict {
                        codes: other_codes,
                        bitmap: other_bitmap,
                        ..
                    },
                ) => append((codes, bitmap), (other_codes, other_bitmap), total),
                _ => unreachable!("uniform parts share one representation"),
            }
        }
        merged
    }

    /// Append the stable grouping key of slot `i` to `out`. Delegates to the
    /// same per-type writers as [`Value::write_group_key`] (one encoding, two
    /// entry points) while avoiding a [`Value`] materialization for typed
    /// slots.
    pub fn write_group_key(&self, i: usize, out: &mut String) {
        use crate::value::key_writers;
        match self {
            Column::Int64(v, b) if b.is_valid(i) => key_writers::int(v[i], out),
            Column::Float64(v, b) if b.is_valid(i) => key_writers::float(v[i], out),
            Column::Bool(v, b) if b.is_valid(i) => key_writers::bool(v[i], out),
            Column::Utf8(v, b) if b.is_valid(i) => key_writers::str("s:", &v[i], out),
            Column::Dict {
                codes,
                dict,
                bitmap,
            } if bitmap.is_valid(i) => key_writers::str("s:", &dict[codes[i] as usize], out),
            Column::Image(v, b) if b.is_valid(i) => key_writers::str("img:", &v[i], out),
            Column::Text(v, b) if b.is_valid(i) => key_writers::str("t:", &v[i], out),
            Column::Date(v, b) if b.is_valid(i) => key_writers::date(&v[i], out),
            Column::Mixed(v) => v[i].write_group_key(out),
            _ => key_writers::null(out),
        }
    }
}

/// Incremental builder packing dynamically typed values into a typed column.
///
/// The builder starts out targeting `declared` (the schema type) and silently
/// degrades to the mixed representation the first time a value of another
/// runtime type is pushed — mirroring the dynamic typing of the row engine it
/// replaces.
#[derive(Debug, Clone)]
pub struct ColumnBuilder {
    typed: TypedBuffer,
    validity: Bitmap,
    /// Set once a value did not fit the declared representation.
    mixed: Option<Vec<Value>>,
}

#[derive(Debug, Clone)]
enum TypedBuffer {
    Bool(Vec<bool>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Vec<Arc<str>>),
    Date(Vec<DateValue>),
    Image(Vec<Arc<str>>),
    Text(Vec<Arc<str>>),
    /// Declared NULL/unknown: first non-null value decides, until then only
    /// NULLs are buffered (their count is the bitmap length).
    Pending,
}

impl ColumnBuilder {
    /// Start building a column whose schema type is `declared`.
    pub fn new(declared: DataType) -> Self {
        ColumnBuilder::with_capacity(declared, 0)
    }

    /// Start building with a capacity hint.
    pub fn with_capacity(declared: DataType, capacity: usize) -> Self {
        let typed = match declared {
            DataType::Bool => TypedBuffer::Bool(Vec::with_capacity(capacity)),
            DataType::Int => TypedBuffer::Int64(Vec::with_capacity(capacity)),
            DataType::Float => TypedBuffer::Float64(Vec::with_capacity(capacity)),
            DataType::Str => TypedBuffer::Utf8(Vec::with_capacity(capacity)),
            DataType::Date => TypedBuffer::Date(Vec::with_capacity(capacity)),
            DataType::Image => TypedBuffer::Image(Vec::with_capacity(capacity)),
            DataType::Text => TypedBuffer::Text(Vec::with_capacity(capacity)),
            DataType::Null => TypedBuffer::Pending,
        };
        ColumnBuilder {
            typed,
            validity: Bitmap::new(),
            mixed: None,
        }
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> usize {
        match &self.mixed {
            Some(values) => values.len(),
            None => self.validity.len(),
        }
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one value.
    pub fn push(&mut self, value: Value) {
        if let Some(values) = &mut self.mixed {
            values.push(value);
            return;
        }
        if value.is_null() {
            self.push_null_typed();
            return;
        }
        let fits = match (&mut self.typed, &value) {
            (TypedBuffer::Bool(v), Value::Bool(b)) => {
                v.push(*b);
                true
            }
            (TypedBuffer::Int64(v), Value::Int(i)) => {
                v.push(*i);
                true
            }
            (TypedBuffer::Float64(v), Value::Float(f)) => {
                v.push(*f);
                true
            }
            (TypedBuffer::Utf8(v), Value::Str(s)) => {
                v.push(Arc::clone(s));
                true
            }
            (TypedBuffer::Date(v), Value::Date(d)) => {
                v.push(d.clone());
                true
            }
            (TypedBuffer::Image(v), Value::Image(s)) => {
                v.push(Arc::clone(s));
                true
            }
            (TypedBuffer::Text(v), Value::Text(s)) => {
                v.push(Arc::clone(s));
                true
            }
            (TypedBuffer::Pending, _) => {
                // First non-null value decides the representation; re-dispatch.
                let nulls = self.validity.len();
                let mut fresh = ColumnBuilder::with_capacity(value.data_type(), nulls + 1);
                for _ in 0..nulls {
                    fresh.push_null_typed();
                }
                *self = fresh;
                self.push(value);
                return;
            }
            _ => false,
        };
        if fits {
            self.validity.push(true);
        } else {
            // Degrade: replay what was typed as values, then append.
            let mut values = self.finish_typed().to_values();
            values.push(value);
            self.mixed = Some(values);
        }
    }

    fn push_null_typed(&mut self) {
        match &mut self.typed {
            TypedBuffer::Bool(v) => v.push(false),
            TypedBuffer::Int64(v) => v.push(0),
            TypedBuffer::Float64(v) => v.push(0.0),
            TypedBuffer::Utf8(v) | TypedBuffer::Image(v) | TypedBuffer::Text(v) => {
                v.push(Arc::from(""))
            }
            TypedBuffer::Date(v) => v.push(DateValue::from_year(0)),
            TypedBuffer::Pending => {}
        }
        self.validity.push(false);
    }

    fn finish_typed(&mut self) -> Column {
        let validity = std::mem::take(&mut self.validity);
        match std::mem::replace(&mut self.typed, TypedBuffer::Pending) {
            TypedBuffer::Bool(v) => Column::Bool(v, validity),
            TypedBuffer::Int64(v) => Column::Int64(v, validity),
            TypedBuffer::Float64(v) => Column::Float64(v, validity),
            TypedBuffer::Utf8(v) => Column::Utf8(v, validity),
            TypedBuffer::Date(v) => Column::Date(v, validity),
            TypedBuffer::Image(v) => Column::Image(v, validity),
            TypedBuffer::Text(v) => Column::Text(v, validity),
            TypedBuffer::Pending => Column::Null(validity.len()),
        }
    }

    /// Finish building.
    pub fn finish(mut self) -> Column {
        match self.mixed.take() {
            Some(values) => Column::from_values(values),
            None => self.finish_typed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_tracks_validity_and_counts() {
        let mut bitmap = Bitmap::new();
        for i in 0..130 {
            bitmap.push(i % 3 != 0);
        }
        assert_eq!(bitmap.len(), 130);
        assert!(!bitmap.is_valid(0));
        assert!(bitmap.is_valid(1));
        assert!(!bitmap.is_valid(129));
        assert_eq!(bitmap.count_valid(), 130 - 44);
        assert!(!bitmap.is_all_valid());
        assert!(Bitmap::all_valid(70).is_valid(69));
    }

    #[test]
    fn from_values_picks_typed_representations() {
        let col = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert!(matches!(col, Column::Int64(..)));
        assert_eq!(col.get(0), Value::Int(1));
        assert!(col.get(1).is_null());
        assert_eq!(col.len(), 3);

        let col = Column::from_values(vec![Value::Null, Value::Null]);
        assert!(matches!(col, Column::Null(2)));

        let col = Column::from_values(vec![Value::Int(1), Value::str("x")]);
        assert!(matches!(col, Column::Mixed(_)));
        assert_eq!(col.get(1), Value::str("x"));
    }

    #[test]
    fn builder_degrades_to_mixed_on_type_conflict() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push(Value::Int(1));
        b.push(Value::str("not a number"));
        b.push(Value::Int(2));
        let col = b.finish();
        assert!(matches!(col, Column::Mixed(_)));
        assert_eq!(col.get(0), Value::Int(1));
        assert_eq!(col.get(1), Value::str("not a number"));
    }

    #[test]
    fn pending_builder_infers_type_from_first_value() {
        let mut b = ColumnBuilder::new(DataType::Null);
        b.push(Value::Null);
        b.push(Value::Float(2.5));
        let col = b.finish();
        assert!(matches!(col, Column::Float64(..)));
        assert!(col.get(0).is_null());
        assert_eq!(col.get(1), Value::Float(2.5));
    }

    #[test]
    fn take_gathers_and_preserves_nulls() {
        let col = Column::from_values(vec![
            Value::str("a"),
            Value::Null,
            Value::str("c"),
            Value::str("d"),
        ]);
        let taken = col.take(&[3, 1, 0]);
        assert_eq!(taken.get(0), Value::str("d"));
        assert!(taken.get(1).is_null());
        assert_eq!(taken.get(2), Value::str("a"));
    }

    #[test]
    fn take_opt_pads_missing_with_nulls() {
        let col = Column::from_values(vec![Value::Int(10), Value::Int(20)]);
        let taken = col.take_opt(&[Some(1), None, Some(0)]);
        assert_eq!(taken.get(0), Value::Int(20));
        assert!(taken.get(1).is_null());
        assert_eq!(taken.get(2), Value::Int(10));
    }

    #[test]
    fn concat_joins_columns() {
        let a = Column::from_values(vec![Value::Int(1)]);
        let b = Column::from_values(vec![Value::Int(2), Value::Null]);
        let joined = Column::concat(vec![a, b]);
        assert_eq!(joined.len(), 3);
        assert_eq!(joined.get(1), Value::Int(2));
        assert!(joined.get(2).is_null());
    }

    #[test]
    fn all_valid_bitmap_equals_pushed_bitmap() {
        // The constructor must not set bits beyond `len`, or the derived
        // PartialEq would distinguish logically identical bitmaps.
        let constructed = Bitmap::all_valid(70);
        let mut pushed = Bitmap::new();
        for _ in 0..70 {
            pushed.push(true);
        }
        assert_eq!(constructed, pushed);
        // And a take-produced all-valid column equals a builder-built one.
        let built = Column::from_values((0..70).map(Value::Int).collect());
        let taken = built.take(&(0..70).collect::<Vec<_>>());
        assert_eq!(built, taken);
    }

    #[test]
    fn bitmap_append_equals_pushing_bit_by_bit_at_any_alignment() {
        let bits = |len: usize, salt: usize| -> Vec<bool> {
            (0..len)
                .map(|i| !(i * 7 + salt).is_multiple_of(5))
                .collect()
        };
        let pushed = |all: &[bool]| {
            let mut bitmap = Bitmap::new();
            all.iter().for_each(|&bit| bitmap.push(bit));
            bitmap
        };
        for lens in [
            vec![0, 5, 0],
            vec![64, 64, 1],
            vec![3, 64, 130],
            vec![70, 1, 57, 200],
            vec![63, 1, 64],
        ] {
            let parts: Vec<Vec<bool>> = lens.iter().map(|&len| bits(len, len)).collect();
            let mut appended = Bitmap::new();
            for part in &parts {
                appended.append(&pushed(part));
            }
            assert_eq!(appended, pushed(&parts.concat()), "{lens:?}");
            assert_eq!(
                appended.count_valid(),
                pushed(&parts.concat()).count_valid()
            );
        }
        // All-valid parts stay equal to the constructor's representation.
        let mut appended = Bitmap::all_valid(70);
        appended.append(&Bitmap::all_valid(59));
        assert_eq!(appended, Bitmap::all_valid(129));
    }

    #[test]
    fn concat_moves_unaligned_chunks_into_the_column_a_gather_builds() {
        for col in every_representation() {
            let whole: Vec<usize> = (0..24).collect();
            let chunks = vec![
                col.take(&whole[..3]),
                col.take(&whole[3..20]),
                col.take(&whole[20..]),
            ];
            assert_eq!(Column::concat(chunks), col.take(&whole), "{col:?}");
        }
    }

    #[test]
    fn concat_keeps_typed_representation() {
        let a = Column::from_values(vec![Value::Int(1), Value::Null]);
        let b = Column::from_values(vec![Value::Int(3)]);
        let joined = Column::concat(vec![a, b]);
        assert!(matches!(joined, Column::Int64(..)));
        assert_eq!(joined.get(0), Value::Int(1));
        assert!(joined.get(1).is_null());
        assert_eq!(joined.get(2), Value::Int(3));
    }

    #[test]
    fn take_opt_keeps_typed_representation() {
        let col = Column::from_values(vec![Value::str("a"), Value::str("b")]);
        let taken = col.take_opt(&[Some(1), None, Some(0)]);
        assert!(matches!(taken, Column::Utf8(..)));
        assert_eq!(taken.get(0), Value::str("b"));
        assert!(taken.get(1).is_null());
        assert_eq!(taken.get(2), Value::str("a"));
    }

    /// One column per storage representation, each with a NULL slot so the
    /// bitmaps are exercised too.
    fn every_representation() -> Vec<Column> {
        let dict = {
            let values: Vec<Value> = (0..24)
                .map(|i| match i % 4 {
                    0 => Value::str("red"),
                    1 => Value::str("green"),
                    2 => Value::Null,
                    _ => Value::str("blue"),
                })
                .collect();
            crate::dict::encode_column(&Column::from_values(values)).expect("encodes")
        };
        vec![
            Column::from_values(
                (0..24)
                    .map(|i| {
                        if i == 3 {
                            Value::Null
                        } else {
                            Value::Bool(i % 2 == 0)
                        }
                    })
                    .collect(),
            ),
            Column::from_values(
                (0..24)
                    .map(|i| if i == 3 { Value::Null } else { Value::Int(i) })
                    .collect(),
            ),
            Column::from_values(
                (0..24)
                    .map(|i| {
                        if i == 3 {
                            Value::Null
                        } else {
                            Value::Float(i as f64)
                        }
                    })
                    .collect(),
            ),
            Column::from_values(
                (0..24)
                    .map(|i| {
                        if i == 3 {
                            Value::Null
                        } else {
                            Value::str(format!("s{i}"))
                        }
                    })
                    .collect(),
            ),
            Column::from_values(
                (0..24)
                    .map(|i| {
                        if i == 3 {
                            Value::Null
                        } else {
                            Value::Date(DateValue::from_year(1900 + i))
                        }
                    })
                    .collect(),
            ),
            Column::from_values(
                (0..24)
                    .map(|i| {
                        if i == 3 {
                            Value::Null
                        } else {
                            Value::image(format!("img/{i}"))
                        }
                    })
                    .collect(),
            ),
            Column::from_values(
                (0..24)
                    .map(|i| {
                        if i == 3 {
                            Value::Null
                        } else {
                            Value::text(format!("doc {i}"))
                        }
                    })
                    .collect(),
            ),
            dict,
            Column::Null(24),
            Column::Mixed(
                (0..24)
                    .map(|i| {
                        if i % 2 == 0 {
                            Value::Int(i)
                        } else {
                            Value::str("x")
                        }
                    })
                    .collect(),
            ),
        ]
    }

    #[test]
    fn slice_preserves_every_representation() {
        for col in every_representation() {
            let sliced = col.slice(2..19);
            assert_eq!(
                std::mem::discriminant(&sliced),
                std::mem::discriminant(&col),
                "slice changed the representation of {col:?}"
            );
            assert_eq!(sliced.len(), 17);
            for i in 0..17 {
                assert_eq!(sliced.get(i), col.get(i + 2));
                assert_eq!(sliced.is_valid(i), col.is_valid(i + 2));
            }
            // Dictionary slices must share the entry table, not copy it.
            if let (Column::Dict { dict: original, .. }, Column::Dict { dict: shared, .. }) =
                (&col, &sliced)
            {
                assert!(Arc::ptr_eq(original, shared));
            }
        }
    }

    #[test]
    fn take_and_take_opt_preserve_dict_representation() {
        let Some(dict_col) = every_representation()
            .into_iter()
            .find(|c| matches!(c, Column::Dict { .. }))
        else {
            panic!("expected a dict column");
        };
        let taken = dict_col.take(&[5, 1, 2, 0]);
        assert!(matches!(taken, Column::Dict { .. }));
        assert_eq!(taken.get(0), dict_col.get(5));
        assert!(!taken.is_valid(2));

        let padded = dict_col.take_opt(&[Some(1), None, Some(0)]);
        assert!(matches!(padded, Column::Dict { .. }));
        assert_eq!(padded.get(0), dict_col.get(1));
        assert!(padded.get(1).is_null());
        assert_eq!(padded.get(2), dict_col.get(0));
    }

    #[test]
    fn concat_keeps_shared_dictionaries_and_unifies_mismatched_ones() {
        let Some(dict_col) = every_representation()
            .into_iter()
            .find(|c| matches!(c, Column::Dict { .. }))
        else {
            panic!("expected a dict column");
        };
        // Morsel shape: slices of one column share the entry table.
        let (a, b) = (dict_col.slice(0..10), dict_col.slice(10..24));
        let joined = Column::concat(vec![a, b]);
        assert!(matches!(joined, Column::Dict { .. }));
        for i in 0..24 {
            assert_eq!(joined.get(i), dict_col.get(i));
        }
        // Mismatched entry tables degrade to plain strings with the same
        // values.
        let other = crate::dict::encode_column(&Column::from_values(
            (0..24)
                .map(|i| Value::str(["blue", "red"][i % 2]))
                .collect(),
        ))
        .expect("encodes");
        let mixed = Column::concat(vec![dict_col.clone(), other.clone()]);
        assert!(matches!(mixed, Column::Utf8(..)));
        assert_eq!(mixed.len(), 48);
        assert_eq!(mixed.get(0), dict_col.get(0));
        assert_eq!(mixed.get(24), other.get(0));
    }

    #[test]
    fn group_keys_match_value_group_keys() {
        let values = vec![
            Value::Int(2),
            Value::Float(2.0),
            Value::str("x"),
            Value::Null,
            Value::Bool(true),
        ];
        let col = Column::Mixed(values.clone());
        for (i, v) in values.iter().enumerate() {
            let mut key = String::new();
            col.write_group_key(i, &mut key);
            assert_eq!(key, v.group_key());
        }
        // Typed columns agree with the Value-level keys too.
        let ints = Column::from_values(vec![Value::Int(7), Value::Null]);
        let mut key = String::new();
        ints.write_group_key(0, &mut key);
        assert_eq!(key, Value::Int(7).group_key());
        key.clear();
        ints.write_group_key(1, &mut key);
        assert_eq!(key, Value::Null.group_key());
    }
}
