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
use std::fmt;
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

    /// Whether the type is a non-relational modality (image or text document).
    pub fn is_multimodal(&self) -> bool {
        matches!(self, DataType::Image | DataType::Text)
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
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Date(_) => DataType::Date,
            Value::Image(_) => DataType::Image,
            Value::Text(_) => DataType::Text,
        }
    }

    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// View as boolean, if possible (ints are truthy when non-zero).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            _ => None,
        }
    }

    /// View as integer, if the value is an int or an integral float.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// View as float (ints are widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// View as a string slice for string-like values (str, image key, text).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) | Value::Image(s) | Value::Text(s) => Some(s),
            _ => None,
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
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => (a.year, a.month, a.day).cmp(&(b.year, b.month, b.day)),
            (Image(a), Image(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) => a.data_type().prompt_name().cmp(b.data_type().prompt_name()),
        }
    }

    /// SQL equality (NULL never equals anything, numbers compare across types).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(match (self, other) {
            (Value::Int(a), Value::Float(b)) => (*a as f64) == *b,
            (Value::Float(a), Value::Int(b)) => *a == (*b as f64),
            _ => self.total_cmp(other) == Ordering::Equal,
        })
    }

    /// A stable key usable for hashing in joins and group-by. Floats are
    /// keyed by their bit pattern; strings by content.
    pub fn group_key(&self) -> String {
        let mut out = String::new();
        self.write_group_key(&mut out);
        out
    }

    /// Append this value's grouping key to `out`. This is the single source
    /// of truth for the key encoding — the columnar kernels
    /// ([`Column::write_group_key`](crate::column::Column::write_group_key))
    /// call the same per-type writers below, so typed and mixed columns can
    /// never drift apart.
    pub fn write_group_key(&self, out: &mut String) {
        match self {
            Value::Null => key_writers::null(out),
            Value::Bool(b) => key_writers::bool(*b, out),
            Value::Int(i) => key_writers::int(*i, out),
            Value::Float(f) => key_writers::float(*f, out),
            Value::Str(s) => key_writers::str("s:", s, out),
            Value::Date(d) => key_writers::date(d, out),
            Value::Image(s) => key_writers::str("img:", s, out),
            Value::Text(s) => key_writers::str("t:", s, out),
        }
    }
}

/// The per-type grouping-key writers shared by [`Value::write_group_key`]
/// and the typed columnar kernels. Kept in one module so the encoding (and
/// in particular the float/int unification rule) cannot diverge between the
/// row and columnar paths.
pub(crate) mod key_writers {
    use super::DateValue;
    use std::fmt::Write;

    pub(crate) fn null(out: &mut String) {
        out.push_str("\u{0}null");
    }

    pub(crate) fn bool(b: bool, out: &mut String) {
        let _ = write!(out, "b:{b}");
    }

    pub(crate) fn int(i: i64, out: &mut String) {
        let _ = write!(out, "i:{i}");
    }

    pub(crate) fn float(f: f64, out: &mut String) {
        if f.fract() == 0.0 && f.abs() < 1e15 {
            // Make 2.0 group together with the integer 2.
            let _ = write!(out, "i:{}", f as i64);
        } else {
            let _ = write!(out, "f:{}", f.to_bits());
        }
    }

    pub(crate) fn str(prefix: &'static str, s: &str, out: &mut String) {
        out.push_str(prefix);
        out.push_str(s);
    }

    pub(crate) fn date(d: &DateValue, out: &mut String) {
        let _ = write!(out, "d:{d}");
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
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{:.1}", v)
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => write!(f, "{d}"),
            Value::Image(s) => write!(f, "<image:{s}>"),
            Value::Text(s) => {
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
    fn data_types_report_multimodality() {
        assert!(DataType::Image.is_multimodal());
        assert!(DataType::Text.is_multimodal());
        assert!(!DataType::Str.is_multimodal());
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

    #[test]
    fn group_keys_unify_integral_floats_and_ints() {
        assert_eq!(Value::Int(2).group_key(), Value::Float(2.0).group_key());
        assert_ne!(Value::Int(2).group_key(), Value::Float(2.5).group_key());
        assert_ne!(Value::str("2").group_key(), Value::Int(2).group_key());
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
