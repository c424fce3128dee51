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

use crate::value::{CellRef, DataType, DateValue, Key, Value};
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

    /// An empty bitmap with room for `len` bits, so pushing them allocates
    /// once.
    pub fn with_capacity(len: usize) -> Self {
        Bitmap {
            words: Vec::with_capacity(len.div_ceil(64)),
            ..Bitmap::default()
        }
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
        let mut out = Bitmap::with_capacity(indices.len());
        for &i in indices {
            out.push(self.is_valid(i));
        }
        out
    }
}

/// Strings stored end to end in one UTF-8 buffer, the variable-size layout
/// of Apache Arrow: slot `i` is `bytes[offsets[i]..offsets[i + 1]]`. A scan
/// reads the strings in order from one allocation, and a gather copies
/// their bytes into a buffer sized once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Utf8Buffer {
    /// `len() + 1` ascending byte offsets into `bytes`, the first 0.
    offsets: Vec<usize>,
    bytes: String,
}

impl Default for Utf8Buffer {
    fn default() -> Self {
        Utf8Buffer::with_capacity(0, 0)
    }
}

impl Utf8Buffer {
    /// An empty buffer with room for `rows` strings of `bytes` bytes in all.
    pub(crate) fn with_capacity(rows: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Utf8Buffer {
            offsets,
            bytes: String::with_capacity(bytes),
        }
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the buffer holds no string.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The string at slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Append one string.
    pub(crate) fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.offsets.push(self.bytes.len());
    }

    /// Append the string `write` appends to the buffer's bytes, and return
    /// `write`'s answer; when that is `false` (NULL), the bytes it appended
    /// are dropped and the slot holds the empty string.
    pub(crate) fn push_with(&mut self, write: impl FnOnce(&mut String) -> bool) -> bool {
        let start = self.bytes.len();
        let valid = write(&mut self.bytes);
        if !valid {
            self.bytes.truncate(start);
        }
        self.offsets.push(self.bytes.len());
        valid
    }

    /// The bytes of the first `rows` strings.
    pub(crate) fn bytes_before(&self, rows: usize) -> usize {
        self.offsets[rows]
    }

    /// The strings in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.offsets.windows(2).map(|w| &self.bytes[w[0]..w[1]])
    }

    /// Gather the strings at `indices` into a new buffer: their lengths are
    /// summed first, so the bytes are copied into one allocation.
    pub(crate) fn take(&self, indices: &[usize]) -> Utf8Buffer {
        let bytes = indices
            .iter()
            .map(|&i| self.offsets[i + 1] - self.offsets[i])
            .sum();
        let mut out = Utf8Buffer::with_capacity(indices.len(), bytes);
        for &i in indices {
            out.push(self.get(i));
        }
        out
    }

    /// Append every string of `other`, its offsets shifted past this
    /// buffer's bytes.
    pub(crate) fn append(&mut self, other: &Utf8Buffer) {
        let base = self.bytes.len();
        self.bytes.push_str(&other.bytes);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&end| base + end));
    }
}

/// An immutable, typed column of values.
///
/// Plain strings ([`Column::Utf8`]) sit in one [`Utf8Buffer`] and are read
/// in place as `&str`; a gather copies their bytes. Image keys and text
/// documents stay `Arc<str>` cells, shared with the image store and with
/// perception requests, so a gather of them bumps reference counts.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Booleans.
    Bool(Vec<bool>, Bitmap),
    /// 64-bit integers.
    Int64(Vec<i64>, Bitmap),
    /// 64-bit floats.
    Float64(Vec<f64>, Bitmap),
    /// UTF-8 strings, in one buffer (NULL slots hold the empty string).
    Utf8(Utf8Buffer, Bitmap),
    /// Calendar dates.
    Date(Vec<DateValue>, Bitmap),
    /// Image references (keys into an image store).
    Image(Vec<Arc<str>>, Bitmap),
    /// Inline text documents.
    Text(Vec<Arc<str>>, Bitmap),
    /// Dictionary-encoded UTF-8 strings: `codes[i]` indexes into the shared,
    /// duplicate-free `dict` entry buffer. Built at table ingest by
    /// [`crate::dict::encode_column`] for low-cardinality string columns;
    /// behaves exactly like [`Column::Utf8`] at the [`Value`] level while the
    /// operator fast paths work on the integer codes directly.
    Dict {
        /// Per-row entry indices (invalid slots hold 0, masked by `bitmap`).
        codes: Vec<u32>,
        /// The shared entry table, in first-appearance order.
        dict: Arc<Utf8Buffer>,
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
            DataType::Str => Column::Utf8(Utf8Buffer::default(), Bitmap::new()),
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
            Column::Utf8(v, _) => v.len(),
            Column::Image(v, _) | Column::Text(v, _) => v.len(),
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

    /// Materialize the value at slot `i`. A plain string is copied into a
    /// new `Arc<str>`, so per-row paths read [`Column::cell`] instead.
    pub fn get(&self, i: usize) -> Value {
        self.cell(i).to_value()
    }

    /// The cell at slot `i`, read in place.
    #[inline]
    pub fn cell(&self, i: usize) -> CellRef<'_> {
        if !self.is_valid(i) {
            return CellRef::Null;
        }
        match self {
            Column::Bool(v, _) => CellRef::Bool(v[i]),
            Column::Int64(v, _) => CellRef::Int(v[i]),
            Column::Float64(v, _) => CellRef::Float(v[i]),
            Column::Utf8(v, _) => CellRef::Str(v.get(i)),
            Column::Date(v, _) => CellRef::Date(&v[i]),
            Column::Image(v, _) => CellRef::Image(&v[i]),
            Column::Text(v, _) => CellRef::Text(&v[i]),
            Column::Dict { codes, dict, .. } => CellRef::Str(dict.get(codes[i] as usize)),
            Column::Null(_) => CellRef::Null,
            Column::Mixed(v) => v[i].cell(),
        }
    }

    /// Call `f` with every slot's cell key ([`CellRef::key`]), in slot
    /// order: an `Int64` or plain string column in one loop over its data,
    /// any other through [`Column::cell`]. Grouping and the hash join key
    /// their rows through it.
    #[inline]
    pub(crate) fn for_each_key<'a>(&'a self, mut f: impl FnMut(usize, Key<'a>)) {
        let key = |valid: &Bitmap, i: usize, cell: CellRef<'a>| match valid.is_valid(i) {
            true => cell.key(),
            false => Key::Null,
        };
        match self {
            Column::Int64(v, b) => {
                for (i, &x) in v.iter().enumerate() {
                    f(i, key(b, i, CellRef::Int(x)));
                }
            }
            Column::Utf8(v, b) => {
                for (i, s) in v.iter().enumerate() {
                    f(i, key(b, i, CellRef::Str(s)));
                }
            }
            other => (0..other.len()).for_each(|i| f(i, other.cell(i).key())),
        }
    }

    /// Iterate over the column's values (materialized one at a time; a cold
    /// path, see [`Column::get`]).
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
    pub fn as_utf8(&self) -> Option<(&Utf8Buffer, &Bitmap)> {
        match self {
            Column::Utf8(v, b) => Some((v, b)),
            _ => None,
        }
    }

    /// Typed view of a dictionary-encoded string column:
    /// `(codes, entries, validity)`.
    pub fn as_dict(&self) -> Option<(&[u32], &Arc<Utf8Buffer>, &Bitmap)> {
        match self {
            Column::Dict {
                codes,
                dict,
                bitmap,
            } => Some((codes, dict, bitmap)),
            _ => None,
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
            Column::Utf8(v, b) => Column::Utf8(v.take(indices), b.take(indices)),
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

    /// Concatenate columns end to end (UNION ALL). Parts sharing one typed representation are
    /// **moved** into the first part's buffers — no per-cell clone, validity
    /// appended a word at a time; mixed-representation inputs fall back to
    /// value-level packing.
    pub fn concat(parts: Vec<Column>) -> Column {
        let total: usize = parts.iter().map(|c| c.len()).sum();
        let uniform = match parts.first() {
            None | Some(Column::Null(_) | Column::Mixed(_)) => false,
            // Parts sharing one entry table (gathered from one column)
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
                (Column::Utf8(v, b), Column::Utf8(ov, ob)) => {
                    v.append(&ov);
                    b.append(&ob);
                }
                (Column::Image(v, b), Column::Image(ov, ob))
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
}

/// Incremental builder packing dynamically typed values into a typed column.
///
/// The builder starts out targeting `declared` (the schema type) and silently
/// degrades to the mixed representation the first time a value of another
/// runtime type is pushed — mirroring the dynamic typing of the row engine it
/// replaces. Started at [`DataType::Null`], it builds exactly the column
/// [`Column::from_values`] builds from the same values.
#[derive(Debug, Clone)]
pub struct ColumnBuilder {
    typed: TypedBuffer,
    validity: Bitmap,
    /// Set once a value did not fit the declared representation.
    mixed: Option<Vec<Value>>,
    /// The capacity hint, kept for the buffer a `Pending` builder picks.
    capacity: usize,
}

#[derive(Debug, Clone)]
enum TypedBuffer {
    Bool(Vec<bool>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Utf8Buffer),
    Date(Vec<DateValue>),
    Image(Vec<Arc<str>>),
    Text(Vec<Arc<str>>),
    /// Declared NULL/unknown: first non-null value decides, until then only
    /// NULLs are buffered (their count is the bitmap length).
    Pending,
}

impl TypedBuffer {
    fn with_capacity(declared: DataType, capacity: usize) -> Self {
        match declared {
            DataType::Bool => TypedBuffer::Bool(Vec::with_capacity(capacity)),
            DataType::Int => TypedBuffer::Int64(Vec::with_capacity(capacity)),
            DataType::Float => TypedBuffer::Float64(Vec::with_capacity(capacity)),
            // The strings' total length is not known up front.
            DataType::Str => TypedBuffer::Utf8(Utf8Buffer::with_capacity(capacity, 0)),
            DataType::Date => TypedBuffer::Date(Vec::with_capacity(capacity)),
            DataType::Image => TypedBuffer::Image(Vec::with_capacity(capacity)),
            DataType::Text => TypedBuffer::Text(Vec::with_capacity(capacity)),
            DataType::Null => TypedBuffer::Pending,
        }
    }

    /// Fill the slot of a NULL with its placeholder.
    fn push_placeholder(&mut self) {
        match self {
            TypedBuffer::Bool(v) => v.push(false),
            TypedBuffer::Int64(v) => v.push(0),
            TypedBuffer::Float64(v) => v.push(0.0),
            TypedBuffer::Utf8(v) => v.push(""),
            TypedBuffer::Image(v) | TypedBuffer::Text(v) => v.push(Arc::from("")),
            TypedBuffer::Date(v) => v.push(DateValue::from_year(0)),
            TypedBuffer::Pending => {}
        }
    }
}

impl ColumnBuilder {
    /// Start building a column whose schema type is `declared`.
    pub fn new(declared: DataType) -> Self {
        ColumnBuilder::with_capacity(declared, 0)
    }

    /// Start building with a capacity hint.
    pub fn with_capacity(declared: DataType, capacity: usize) -> Self {
        ColumnBuilder {
            typed: TypedBuffer::with_capacity(declared, capacity),
            validity: Bitmap::with_capacity(capacity),
            mixed: None,
            capacity,
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
            self.typed.push_placeholder();
            self.validity.push(false);
            return;
        }
        // The value moves into its slot; `Some` hands back one that does
        // not fit the typed representation.
        let misfit = match (&mut self.typed, value) {
            (TypedBuffer::Bool(v), Value::Bool(b)) => {
                v.push(b);
                None
            }
            (TypedBuffer::Int64(v), Value::Int(i)) => {
                v.push(i);
                None
            }
            (TypedBuffer::Float64(v), Value::Float(f)) => {
                v.push(f);
                None
            }
            (TypedBuffer::Utf8(v), Value::Str(s)) => {
                v.push(&s);
                None
            }
            (TypedBuffer::Image(v), Value::Image(s)) | (TypedBuffer::Text(v), Value::Text(s)) => {
                v.push(s);
                None
            }
            (TypedBuffer::Date(v), Value::Date(d)) => {
                v.push(d);
                None
            }
            (TypedBuffer::Pending, value) => {
                // First non-null value decides the representation: give the
                // NULLs so far their placeholders, then re-dispatch.
                let nulls = self.validity.len();
                let capacity = self.capacity.max(nulls + 1);
                self.typed = TypedBuffer::with_capacity(value.data_type(), capacity);
                for _ in 0..nulls {
                    self.typed.push_placeholder();
                }
                self.push(value);
                return;
            }
            (_, value) => Some(value),
        };
        match misfit {
            None => self.validity.push(true),
            Some(value) => {
                // Degrade: replay what was typed as values, then append.
                let mut values = self.finish_typed().to_values();
                values.push(value);
                self.mixed = Some(values);
            }
        }
    }

    /// Append one cell read in place: a string is copied straight into a
    /// string buffer, without an `Arc<str>` between; every other cell is
    /// pushed as its value.
    pub(crate) fn push_cell(&mut self, cell: CellRef<'_>) {
        match (&mut self.typed, cell) {
            (TypedBuffer::Utf8(v), CellRef::Str(s)) if self.mixed.is_none() => {
                v.push(s);
                self.validity.push(true);
            }
            _ => self.push(cell.to_value()),
        }
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
    fn take_preserves_dict_representation() {
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
    }

    #[test]
    fn concat_keeps_shared_dictionaries_and_unifies_mismatched_ones() {
        let Some(dict_col) = every_representation()
            .into_iter()
            .find(|c| matches!(c, Column::Dict { .. }))
        else {
            panic!("expected a dict column");
        };
        // Parts gathered from one column share the entry table.
        let rows: Vec<usize> = (0..24).collect();
        let (a, b) = (dict_col.take(&rows[..10]), dict_col.take(&rows[10..]));
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

    /// Strings of one- to four-byte characters, empty strings and NULLs:
    /// every gather, filter, concat and dictionary round trip over them
    /// builds the column `from_values` builds from the same values — offsets,
    /// bytes and NULL placeholders included.
    #[test]
    fn multi_byte_strings_survive_take_filter_concat_and_dict_round_trips() {
        let pieces = ["", "é", "中文", "🎨", "a🎨é", "plain", "ß中"];
        let values: Vec<Value> = (0..40)
            .map(|i| match i % 7 {
                3 => Value::Null,
                _ => Value::str(pieces[i % pieces.len()].repeat(i % 3)),
            })
            .collect();
        let column = Column::from_values(values.clone());
        assert!(matches!(column, Column::Utf8(..)));
        let built_from = |values: &[Value], rows: &[usize]| {
            Column::from_values(rows.iter().map(|&i| values[i].clone()).collect())
        };
        // A gather out of order, with repeats.
        let gather: Vec<usize> = (0..40).rev().chain([5, 5, 0]).collect();
        assert_eq!(column.take(&gather), built_from(&values, &gather));
        // A filter: the ascending rows a predicate keeps.
        let kept: Vec<usize> = (0..40).filter(|i| i % 3 != 1).collect();
        assert_eq!(column.take(&kept), built_from(&values, &kept));
        // Concatenated chunks, an empty one among them.
        let whole: Vec<usize> = (0..40).collect();
        let chunks = [&whole[..7], &whole[7..7], &whole[7..33], &whole[33..]];
        let chunks = chunks.iter().map(|rows| column.take(rows)).collect();
        assert_eq!(Column::concat(chunks), column);

        // Dictionary encoding and decoding, and a gather of the codes.
        let values: Vec<Value> = (0..64)
            .map(|i| match i % 9 {
                4 => Value::Null,
                _ => Value::str(pieces[i % 4]),
            })
            .collect();
        let plain = Column::from_values(values.clone());
        let encoded = crate::dict::encode_column(&plain).expect("four entries in 64 rows");
        assert!(matches!(encoded, Column::Dict { .. }));
        assert_eq!(crate::dict::decode_column(&encoded), plain);
        assert_eq!(
            crate::dict::decode_column(&encoded.take(&gather)),
            built_from(&values, &gather)
        );
        for (i, value) in values.iter().enumerate() {
            assert_eq!(encoded.cell(i).as_str(), value.as_str(), "row {i}");
        }
    }
}
