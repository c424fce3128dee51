//! The key rule of `GROUP BY`, `JOIN` and `DISTINCT`, written out for the
//! property suites' oracles apart from the engine's own: a row is keyed by
//! a `Vec` of its cells' keys, compared whole, so no byte a string holds can
//! stand for a column boundary or a type.

use caesura::engine::Value;

/// A cell's key. Two cells are the same row key iff their keys are equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CellKey {
    Null,
    Bool(bool),
    /// An int, or a float holding one within ±2^53 (there `=` is exact).
    Int(i64),
    /// Any other float, by its bits.
    Float(u64),
    Str(String),
    /// A date, by its rendering.
    Date(String),
    Image(String),
    Text(String),
}

/// The key of `value`.
pub fn cell_key(value: &Value) -> CellKey {
    const EXACT: f64 = (1u64 << 53) as f64;
    match value {
        Value::Null => CellKey::Null,
        Value::Bool(b) => CellKey::Bool(*b),
        Value::Int(i) => CellKey::Int(*i),
        Value::Float(f) if f.fract() == 0.0 && f.abs() <= EXACT => CellKey::Int(*f as i64),
        Value::Float(f) => CellKey::Float(f.to_bits()),
        Value::Str(s) => CellKey::Str(s.to_string()),
        Value::Date(d) => CellKey::Date(d.to_string()),
        Value::Image(s) => CellKey::Image(s.to_string()),
        Value::Text(s) => CellKey::Text(s.to_string()),
    }
}
