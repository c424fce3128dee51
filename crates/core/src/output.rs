//! Query outputs: "the result for user queries in our system can range from
//! single values, over tables, to even a plot" (§1 of the paper).

use caesura_engine::{Table, Value};
use caesura_modal::Plot;
use std::fmt;

/// The final answer of a CAESURA query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// A single scalar value.
    Value(Value),
    /// A result table.
    Table(Table),
    /// A plot of the result table (the table it was built from is retained for
    /// inspection and grading).
    Plot {
        /// The rendered plot.
        plot: Plot,
        /// The table the plot was produced from.
        table: Table,
    },
}

impl QueryOutput {
    /// Build the output from the final result table, collapsing 1×1 tables to
    /// a single value.
    pub fn from_table(table: Table) -> QueryOutput {
        if table.num_rows() == 1 && table.num_columns() == 1 {
            QueryOutput::Value(table.cell(0, 0).unwrap_or(Value::Null))
        } else {
            QueryOutput::Table(table)
        }
    }

    /// The output kind as a short label ("value" / "table" / "plot").
    pub fn kind(&self) -> &'static str {
        match self {
            QueryOutput::Value(_) => "value",
            QueryOutput::Table(_) => "table",
            QueryOutput::Plot { .. } => "plot",
        }
    }

    /// The scalar value, if the output is a single value.
    pub fn as_value(&self) -> Option<&Value> {
        match self {
            QueryOutput::Value(v) => Some(v),
            _ => None,
        }
    }

    /// The result table backing this output (also available for plots).
    pub fn table(&self) -> Option<&Table> {
        match self {
            QueryOutput::Table(t) => Some(t),
            QueryOutput::Plot { table, .. } => Some(table),
            QueryOutput::Value(_) => None,
        }
    }

    /// The plot, if the output is a plot.
    pub fn plot(&self) -> Option<&Plot> {
        match self {
            QueryOutput::Plot { plot, .. } => Some(plot),
            _ => None,
        }
    }

    /// A 64-bit digest of the output's content, stable across processes and
    /// builds (FNV-1a, not `DefaultHasher`): the kind, then the value, or the
    /// plot's spec and points and the table's column names, types and cells.
    /// How a table is stored (dictionary-encoded or not) does not enter it.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv1a::new();
        hash.write(self.kind());
        match self {
            QueryOutput::Value(value) => hash.write(&format!("{value:?}")),
            QueryOutput::Table(_) => {}
            // Spelled out rather than `{plot:?}`, so the digests the ledger
            // holds survive a change to the plot types: this is the text a
            // plot was first recorded as, title slot included.
            QueryOutput::Plot { plot, .. } => {
                let spec = &plot.spec;
                hash.write(&format!(
                    "Plot {{ spec: PlotSpec {{ kind: {:?}, x_column: {:?}, y_column: {:?}, \
                     title: None }}, points: {:?} }}",
                    spec.kind, spec.x_column, spec.y_column, plot.points
                ))
            }
        }
        if let Some(table) = self.table() {
            for field in table.schema().fields() {
                hash.write(&format!("{}:{:?}", field.name, field.data_type));
            }
            for row in table.rows() {
                for value in row.values() {
                    hash.write(&format!("{value:?}"));
                }
            }
        }
        hash.0
    }
}

/// FNV-1a over length-prefixed strings, so adjacent parts cannot run into
/// each other.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, part: &str) {
        let length = (part.len() as u64).to_le_bytes();
        for byte in length.iter().chain(part.as_bytes()) {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl fmt::Display for QueryOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryOutput::Value(v) => write!(f, "{v}"),
            QueryOutput::Table(t) => write!(f, "{}", t.pretty(20)),
            QueryOutput::Plot { plot, .. } => write!(f, "{}", plot.render_text()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesura_engine::{DataType, Schema, TableBuilder};

    #[test]
    fn single_cell_tables_collapse_to_values() {
        let schema = Schema::from_pairs(&[("n", DataType::Int)]);
        let mut b = TableBuilder::new("result", schema);
        b.push_row(vec![Value::Int(42)]).unwrap();
        let output = QueryOutput::from_table(b.build());
        assert_eq!(output.kind(), "value");
        assert_eq!(output.as_value(), Some(&Value::Int(42)));
    }

    #[test]
    fn multi_row_tables_stay_tables() {
        let schema = Schema::from_pairs(&[("n", DataType::Int)]);
        let mut b = TableBuilder::new("result", schema);
        b.push_row(vec![Value::Int(1)]).unwrap();
        b.push_row(vec![Value::Int(2)]).unwrap();
        let output = QueryOutput::from_table(b.build());
        assert_eq!(output.kind(), "table");
        assert_eq!(output.table().unwrap().num_rows(), 2);
        assert!(output.as_value().is_none());
        assert!(output.plot().is_none());
    }

    #[test]
    fn digests_follow_content_and_are_pinned() {
        let table = |values: &[i64]| {
            let schema = Schema::from_pairs(&[("n", DataType::Int)]);
            let mut b = TableBuilder::new("result", schema);
            for value in values {
                b.push_row(vec![Value::Int(*value)]).unwrap();
            }
            QueryOutput::from_table(b.build())
        };
        assert_eq!(table(&[1, 2]).digest(), table(&[1, 2]).digest());
        assert_ne!(table(&[1, 2]).digest(), table(&[2, 1]).digest());
        assert_ne!(
            QueryOutput::Value(Value::Int(1)).digest(),
            QueryOutput::Value(Value::str("1")).digest()
        );
        // Pinned: the digest is committed in the suite ledger, so it must not
        // change between processes or builds.
        assert_eq!(table(&[1, 2]).digest(), 0xba64_aa91_ff19_f9d1);
    }

    #[test]
    fn display_renders_each_kind() {
        let output = QueryOutput::Value(Value::str("yes"));
        assert_eq!(output.to_string(), "yes");
    }
}
