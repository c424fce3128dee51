//! Dynamically typed values and data types.
//!
//! The engine is deliberately dynamically typed — just like the SQLite backend
//! used by the original CAESURA prototype. Two "wide" types are added on top of
//! the usual scalar types so that multi-modal collections can be presented to
//! the planner as ordinary two-column tables (see Figure 4 of the paper):
//!
//! * [`DataType::Image`] — an opaque reference into an image collection. The
//!   value stores the image key (e.g. `img/17.png`); the actual pixel data /
//!   scene annotation lives in the `caesura-modal` crate.
//! * [`DataType::Text`] — a full text document (e.g. a basketball game report)
//!   stored inline.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// The data type of a [`Value`] or of a schema field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Absence of a value. Only used for untyped NULL literals.
    Null,
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Calendar date, stored as days since 1970-01-01 plus the original text.
    Date,
    /// Opaque reference to an image in an image collection.
    Image,
    /// A full text document.
    Text,
}

impl DataType {
    /// Name of the type as presented to the language model in prompts
    /// (matches the notation used in Figure 3 of the paper, e.g. `'IMAGE'`).
    pub fn prompt_name(&self) -> &'static str {
        match self {
            DataType::Null => "null",
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Date => "date",
            DataType::Image => "IMAGE",
            DataType::Text => "TEXT",
        }
    }

    /// Whether the type is numeric (int or float).
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prompt_name())
    }
}

/// A date value: days since the Unix epoch plus the original textual form.
///
/// The artwork metadata table stores inception dates as strings in a variety of
/// formats (`1889-01-05`, `1480`, `c. 1503`), exactly like the Wikidata-derived
/// table in the paper; parsing them is the job of the Python-UDF substitute.
/// When a date has been parsed we keep both the normalized year and the
/// original text so observations remain human readable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DateValue {
    /// Year component (may be negative for BCE).
    pub year: i32,
    /// Month component, 1-12, or 0 if unknown.
    pub month: u8,
    /// Day component, 1-31, or 0 if unknown.
    pub day: u8,
}

impl DateValue {
    /// Build a date from a year only.
    pub fn from_year(year: i32) -> Self {
        DateValue {
            year,
            month: 0,
            day: 0,
        }
    }

    /// Build a full date.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        DateValue { year, month, day }
    }

    /// The century this date belongs to (1-based: 1889 → 19).
    pub fn century(&self) -> i32 {
        if self.year > 0 {
            (self.year - 1) / 100 + 1
        } else {
            self.year / 100 - 1
        }
    }
}

impl fmt::Display for DateValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.month == 0 {
            write!(f, "{:04}", self.year)
        } else if self.day == 0 {
            write!(f, "{:04}-{:02}", self.year, self.month)
        } else {
            write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
        }
    }
}

/// A dynamically typed value stored in a table cell.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String. `Arc<str>` keeps row cloning cheap during joins.
    Str(Arc<str>),
    /// Calendar date.
    Date(DateValue),
    /// Opaque reference (key) into an image collection.
    Image(Arc<str>),
    /// Inline text document.
    Text(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Construct an image reference value.
    pub fn image(key: impl AsRef<str>) -> Self {
        Value::Image(Arc::from(key.as_ref()))
    }

    /// Construct a text document value.
    pub fn text(content: impl AsRef<str>) -> Self {
        Value::Text(Arc::from(content.as_ref()))
    }

    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        self.cell().data_type()
    }

    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// View as boolean, if possible (ints are truthy when non-zero).
    pub fn as_bool(&self) -> Option<bool> {
        self.cell().as_bool()
    }

    /// View as integer, if the value is an int or an integral float.
    pub fn as_int(&self) -> Option<i64> {
        self.cell().as_int()
    }

    /// View as float (ints are widened).
    pub fn as_float(&self) -> Option<f64> {
        self.cell().as_float()
    }

    /// View as a string slice for string-like values (str, image key, text).
    pub fn as_str(&self) -> Option<&str> {
        self.cell().as_str()
    }

    /// The value as a borrowed cell.
    #[inline]
    pub(crate) fn cell(&self) -> CellRef<'_> {
        match self {
            Value::Null => CellRef::Null,
            Value::Bool(b) => CellRef::Bool(*b),
            Value::Int(i) => CellRef::Int(*i),
            Value::Float(f) => CellRef::Float(*f),
            Value::Str(s) => CellRef::Str(s),
            Value::Date(d) => CellRef::Date(d),
            Value::Image(s) => CellRef::Image(s),
            Value::Text(s) => CellRef::Text(s),
        }
    }

    /// Render the value the way it is shown to the LLM in observations
    /// (short, human-readable, truncating long documents).
    pub fn preview(&self, max_len: usize) -> String {
        let text = self.to_string();
        if text.chars().count() <= max_len {
            text
        } else {
            let truncated: String = text.chars().take(max_len.saturating_sub(3)).collect();
            format!("{truncated}...")
        }
    }

    /// Total ordering used by ORDER BY and MIN/MAX: NULLs sort first, numbers
    /// compare numerically across int/float, other types compare within their
    /// own class and by type name across classes.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.cell().total_cmp(other.cell())
    }

    /// SQL equality (NULL never equals anything, numbers compare across types).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.cell().sql_eq(other.cell())
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ => self.sql_eq(other).unwrap_or(false),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.cell().fmt(f)
    }
}

/// A cell read in place: the borrowed form of a [`Value`]. Kernels,
/// previews and question templates look at a column's cells through it
/// without materializing them (a plain string is a slice of its column's
/// buffer). [`Value`]'s accessors, ordering and rendering are defined here,
/// once, and the owned value delegates.
#[derive(Debug, Clone, Copy)]
pub enum CellRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(&'a str),
    /// Calendar date.
    Date(&'a DateValue),
    /// Image key, shared with its column.
    Image(&'a Arc<str>),
    /// Text document, shared with its column.
    Text(&'a Arc<str>),
}

impl<'a> CellRef<'a> {
    /// The owned value: a plain string is copied into a new `Arc<str>`, an
    /// image key or a text document is an `Arc` bump.
    #[inline]
    pub(crate) fn to_value(self) -> Value {
        match self {
            CellRef::Null => Value::Null,
            CellRef::Bool(b) => Value::Bool(b),
            CellRef::Int(i) => Value::Int(i),
            CellRef::Float(f) => Value::Float(f),
            CellRef::Str(s) => Value::Str(Arc::from(s)),
            CellRef::Date(d) => Value::Date(d.clone()),
            CellRef::Image(s) => Value::Image(Arc::clone(s)),
            CellRef::Text(s) => Value::Text(Arc::clone(s)),
        }
    }

    /// See [`Value::data_type`].
    pub(crate) fn data_type(self) -> DataType {
        match self {
            CellRef::Null => DataType::Null,
            CellRef::Bool(_) => DataType::Bool,
            CellRef::Int(_) => DataType::Int,
            CellRef::Float(_) => DataType::Float,
            CellRef::Str(_) => DataType::Str,
            CellRef::Date(_) => DataType::Date,
            CellRef::Image(_) => DataType::Image,
            CellRef::Text(_) => DataType::Text,
        }
    }

    /// See [`Value::is_null`].
    #[inline]
    pub(crate) fn is_null(self) -> bool {
        matches!(self, CellRef::Null)
    }

    /// See [`Value::as_bool`].
    #[inline]
    pub(crate) fn as_bool(self) -> Option<bool> {
        match self {
            CellRef::Bool(b) => Some(b),
            CellRef::Int(i) => Some(i != 0),
            _ => None,
        }
    }

    /// See [`Value::as_int`].
    pub(crate) fn as_int(self) -> Option<i64> {
        match self {
            CellRef::Int(i) => Some(i),
            CellRef::Float(f) if f.fract() == 0.0 => Some(f as i64),
            CellRef::Bool(b) => Some(i64::from(b)),
            _ => None,
        }
    }

    /// See [`Value::as_float`].
    pub(crate) fn as_float(self) -> Option<f64> {
        match self {
            CellRef::Int(i) => Some(i as f64),
            CellRef::Float(f) => Some(f),
            _ => None,
        }
    }

    /// See [`Value::as_str`].
    #[inline]
    pub(crate) fn as_str(self) -> Option<&'a str> {
        match self {
            CellRef::Str(s) => Some(s),
            CellRef::Image(s) | CellRef::Text(s) => Some(s),
            _ => None,
        }
    }

    /// See [`Value::total_cmp`].
    pub(crate) fn total_cmp(self, other: CellRef<'_>) -> Ordering {
        use CellRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Float(a), Float(b)) => a.total_cmp(&b),
            (Int(a), Float(b)) => (a as f64).total_cmp(&b),
            (Float(a), Int(b)) => a.total_cmp(&(b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => (a.year, a.month, a.day).cmp(&(b.year, b.month, b.day)),
            (Image(a), Image(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) => a.data_type().prompt_name().cmp(b.data_type().prompt_name()),
        }
    }

    /// See [`Value::sql_eq`].
    pub(crate) fn sql_eq(self, other: CellRef<'_>) -> Option<bool> {
        use CellRef::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Float(b)) => Some(a as f64 == b),
            (Float(a), Int(b)) => Some(a == b as f64),
            (a, b) => Some(a.total_cmp(b) == Ordering::Equal),
        }
    }

    /// Whether both cells hold the same runtime type and the same payload,
    /// floats compared bit for bit. Stricter than SQL equality, which takes
    /// `1` and `1.0` (or `0.0` and `-0.0`) as equal: two same cells always
    /// render the same text.
    pub(crate) fn same(self, other: CellRef<'_>) -> bool {
        use CellRef::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (Image(a), Image(b)) | (Text(a), Text(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            _ => false,
        }
    }

    /// The cell's key: the one rule by which `GROUP BY`, `JOIN` and
    /// `DISTINCT` take two cells as the same. NULL is one key. A bool never
    /// equals an int. A float that holds an integer within ±2^53 is the key
    /// of that int (so `0.0` and `-0.0` are one key); up to 2^53 every int
    /// converts to a float exactly, so there the rule agrees with `=`. Any
    /// other float keys by its bits. A plain string equals a
    /// dictionary-encoded one with the same text, never an image key or a
    /// text document. A date keys by its rendering: without a month the day
    /// does not count.
    #[inline]
    pub(crate) fn key(self) -> Key<'a> {
        /// 2^53: integers up to it are exact as floats.
        const EXACT: f64 = 9_007_199_254_740_992.0;
        match self {
            CellRef::Null => Key::Null,
            CellRef::Bool(b) => Key::Bool(b),
            CellRef::Int(i) => Key::Int(i),
            CellRef::Float(f) if f.fract() == 0.0 && f.abs() <= EXACT => Key::Int(f as i64),
            CellRef::Float(f) => Key::Float(f.to_bits()),
            CellRef::Str(s) => Key::Str(s),
            CellRef::Date(d) => Key::Date(d.year, d.month, if d.month == 0 { 0 } else { d.day }),
            CellRef::Image(s) => Key::Image(s),
            CellRef::Text(s) => Key::Text(s),
        }
    }
}

/// A cell's key ([`CellRef::key`]): two cells are one key iff they are
/// equal under the rule written there. Strings are borrowed from their
/// column, so keying a row allocates nothing.
#[derive(Debug, Clone, Copy, Eq)]
pub(crate) enum Key<'a> {
    Null,
    Bool(bool),
    /// An int, or a float holding one within ±2^53.
    Int(i64),
    /// Any other float, by its bits.
    Float(u64),
    Str(&'a str),
    /// Year, month, and the day when there is a month.
    Date(i32, u8, u8),
    Image(&'a str),
    Text(&'a str),
}

// `PartialEq` and `Hash` are written out, and always inlined, so a loop
// over an int column keys each row without a call: an int, a float, a bool
// or NULL hashes as one word, a string as its bytes. Keys of different
// kinds may share a hash; equality tells them apart.
impl PartialEq for Key<'_> {
    #[inline(always)]
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Key::Null, Key::Null) => true,
            (Key::Bool(a), Key::Bool(b)) => a == b,
            (Key::Int(a), Key::Int(b)) => a == b,
            (Key::Float(a), Key::Float(b)) => a == b,
            (Key::Str(a), Key::Str(b))
            | (Key::Image(a), Key::Image(b))
            | (Key::Text(a), Key::Text(b)) => a == b,
            (Key::Date(y, m, d), Key::Date(other_y, other_m, other_d)) => {
                (y, m, d) == (other_y, other_m, other_d)
            }
            _ => false,
        }
    }
}

impl Hash for Key<'_> {
    #[inline(always)]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            Key::Null => state.write_u64(0),
            Key::Bool(b) => state.write_u64(u64::from(b)),
            Key::Int(i) => state.write_u64(i as u64),
            Key::Float(bits) => state.write_u64(bits),
            Key::Str(s) | Key::Image(s) | Key::Text(s) => state.write(s.as_bytes()),
            Key::Date(y, m, d) => {
                state.write_u64(u64::from(y as u32) << 16 | u64::from(m) << 8 | u64::from(d))
            }
        }
    }
}

/// A hash map over cell keys, or over rows of them.
pub(crate) type KeyMap<K, V> = HashMap<K, V, KeyHash>;

/// A new [`KeyMap`] with room for `capacity` keys.
pub(crate) fn key_map<K, V>(capacity: usize) -> KeyMap<K, V> {
    HashMap::with_capacity_and_hasher(capacity, KeyHash(RandomState::new().hash_one(0u64)))
}

/// Hashes keys with one keyed 128-bit multiply per word, folded to 64 bits:
/// std's SipHash costs more per key than the rest of a grouping pass. The
/// key is drawn per map from std's per-process random hash keys, so which
/// keys collide changes from map to map and from run to run.
#[derive(Clone)]
pub(crate) struct KeyHash(u64);

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.0)
    }
}

/// The running state of a [`KeyHash`].
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Eight bytes per word, then a last word of the fewer than eight
    /// bytes left with their count in its top byte: two byte strings never
    /// give the same words. Kept out of line, so a number's hash stays
    /// small enough to inline.
    #[inline(never)]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        let mut last = (rest.len() as u64) << 56;
        for (i, &byte) in rest.iter().enumerate() {
            last |= u64::from(byte) << (8 * i);
        }
        self.write_u64(last);
    }

    #[inline(always)]
    fn write_u64(&mut self, x: u64) {
        const MULTIPLIER: u128 = 0x9E37_79B9_7F4A_7C15;
        let product = u128::from(self.0 ^ x) * MULTIPLIER;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    /// A row key's length.
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

impl fmt::Display for CellRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CellRef::Null => f.write_str("NULL"),
            CellRef::Bool(b) => write!(f, "{b}"),
            CellRef::Int(i) => write!(f, "{i}"),
            CellRef::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{:.1}", v)
                } else {
                    write!(f, "{v}")
                }
            }
            CellRef::Str(s) => f.write_str(s),
            CellRef::Date(d) => write!(f, "{d}"),
            CellRef::Image(s) => write!(f, "<image:{s}>"),
            CellRef::Text(s) => {
                let preview: String = s.chars().take(40).collect();
                if s.chars().count() > 40 {
                    write!(f, "<text:{preview}...>")
                } else {
                    write!(f, "<text:{preview}>")
                }
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

impl From<DateValue> for Value {
    fn from(v: DateValue) -> Self {
        Value::Date(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(inner) => inner.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_types_report_numericness() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Float.is_numeric());
        assert!(!DataType::Bool.is_numeric());
    }

    #[test]
    fn century_computation_matches_paper_examples() {
        // Figure 1: 1889 belongs to the 19th century, 1480 to the 15th.
        assert_eq!(DateValue::from_year(1889).century(), 19);
        assert_eq!(DateValue::from_year(1480).century(), 15);
        assert_eq!(DateValue::from_year(1900).century(), 19);
        assert_eq!(DateValue::from_year(1901).century(), 20);
        assert_eq!(DateValue::from_year(2000).century(), 20);
    }

    #[test]
    fn numeric_comparison_spans_int_and_float() {
        assert_eq!(Value::Int(3).total_cmp(&Value::Float(3.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(10.0).total_cmp(&Value::Int(3)),
            Ordering::Greater
        );
    }

    #[test]
    fn null_never_equals_anything_under_sql_semantics() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
    }

    fn key(value: &Value) -> Key<'_> {
        value.cell().key()
    }

    #[test]
    fn keys_unify_integral_floats_and_ints_up_to_two_to_the_53() {
        let two_53 = 1i64 << 53;
        for i in [2, 0, -7, 1_000_000_000_000_000, two_53, -two_53] {
            assert_eq!(key(&Value::Int(i)), key(&Value::Float(i as f64)), "{i}");
        }
        assert_eq!(key(&Value::Float(-0.0)), key(&Value::Int(0)));
        assert_ne!(key(&Value::Int(2)), key(&Value::Float(2.5)));
        // Past 2^53 a float stands for several ints, and keys by its bits.
        let past = 2.0 * two_53 as f64;
        assert_eq!(key(&Value::Float(past)), Key::Float(past.to_bits()));
        assert_ne!(key(&Value::Float(f64::NAN)), key(&Value::Int(0)));
    }

    #[test]
    fn keys_keep_types_apart_that_equality_keeps_apart() {
        assert_ne!(key(&Value::str("2")), key(&Value::Int(2)));
        assert_ne!(key(&Value::Bool(true)), key(&Value::Int(1)));
        assert_ne!(key(&Value::str("a")), key(&Value::image("a")));
        assert_ne!(key(&Value::str("a")), key(&Value::text("a")));
        assert_ne!(key(&Value::image("a")), key(&Value::text("a")));
        assert_eq!(key(&Value::Null), key(&Value::Null));
    }

    #[test]
    fn a_date_keys_by_its_rendering() {
        let date = |y, m, d| Value::Date(DateValue::new(y, m, d));
        assert_eq!(key(&date(1889, 0, 5)), key(&date(1889, 0, 0)));
        assert_ne!(key(&date(1889, 1, 5)), key(&date(1889, 1, 0)));
        assert_ne!(key(&date(1889, 1, 0)), key(&date(1889, 0, 0)));
    }

    #[test]
    fn the_key_hasher_reads_every_byte_of_a_string() {
        let hash = KeyHash(7);
        let words = [
            "",
            "\0",
            "a",
            "a\0",
            "abcdefg",
            "abcdefg\u{7}",
            "abcdefgh",
            "abcdefgh\0",
        ];
        let hashes: std::collections::HashSet<u64> =
            words.iter().map(|w| hash.hash_one(Key::Str(w))).collect();
        assert_eq!(hashes.len(), words.len());
    }

    #[test]
    fn preview_truncates_long_text() {
        let long = "x".repeat(100);
        let value = Value::text(&long);
        let preview = value.preview(20);
        assert!(preview.len() <= 20);
        assert!(preview.ends_with("..."));
    }

    #[test]
    fn display_renders_images_and_text_distinctly() {
        assert_eq!(Value::image("img/1.png").to_string(), "<image:img/1.png>");
        assert!(Value::text("The Spurs defeated the Heat")
            .to_string()
            .starts_with("<text:"));
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("abc"), Value::str("abc"));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
        assert_eq!(Value::from(Some(7i64)), Value::Int(7));
    }

    #[test]
    fn as_int_accepts_integral_floats_only() {
        assert_eq!(Value::Float(4.0).as_int(), Some(4));
        assert_eq!(Value::Float(4.5).as_int(), None);
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::str("4").as_int(), None);
    }
}
