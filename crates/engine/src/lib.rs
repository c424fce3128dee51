//! # caesura-engine
//!
//! The relational substrate of the CAESURA reproduction: an in-memory,
//! dynamically typed relational engine playing the role that SQLite plays in
//! the original prototype ("CAESURA has access to all relational operators
//! supported by SQLite", §4 of the paper).
//!
//! The crate provides:
//!
//! * [`Value`] / [`DataType`] — dynamically typed cells, including the
//!   multi-modal `IMAGE` and `TEXT` types the planner reasons about,
//! * [`Column`] / [`Bitmap`] — typed, `Arc`-shared columnar storage with
//!   validity bitmaps; plain strings sit in one [`Utf8Buffer`] per column,
//!   read in place as [`CellRef`]s,
//! * [`dict`] — dictionary encoding for low-cardinality string columns at
//!   ingest, letting group-bys, string-literal compares and plain ⋈ dict
//!   join probes run on `u32` codes instead of strings,
//! * [`Schema`] / [`Table`] — columnar tables (with a row-view iterator) and
//!   the prompt-rendering helpers CAESURA uses to describe data to the
//!   language model,
//! * [`Expr`] — scalar expressions with both a vectorized column-at-a-time
//!   evaluator and a row-at-a-time evaluator,
//! * [`ops`] — vectorized physical relational operators (filter, project,
//!   hash join, aggregation, sort, limit, distinct, union), whose output
//!   columns go through one gather (`Selection`),
//! * [`sql`] — a read-only SQL subset (parser + executor) used by the SQL
//!   physical operators of CAESURA's plans,
//! * [`Catalog`] — the named-table registry backing a data lake.
//!
//! Every relational operator runs sequentially on the calling thread, and
//! the crate holds no thread setting: float `SUM`/`AVG` fold each group in
//! row order.
//!
//! ```
//! use caesura_engine::{Catalog, Schema, TableBuilder, DataType, Value, sql::run_sql};
//!
//! let schema = Schema::from_pairs(&[("title", DataType::Str), ("year", DataType::Int)]);
//! let mut builder = TableBuilder::new("paintings", schema);
//! builder.push_values::<_, Value>(vec!["Irises".into(), 1889i64.into()]).unwrap();
//! let mut catalog = Catalog::new();
//! catalog.register(builder.build());
//!
//! let result = run_sql(&catalog, "SELECT title FROM paintings WHERE year > 1800").unwrap();
//! assert_eq!(result.num_rows(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod catalog;
pub mod column;
pub mod dict;
pub mod error;
pub mod expr;
pub mod ops;
pub mod schema;
mod selection;
pub mod sql;
pub mod table;
pub mod value;

pub use catalog::{Catalog, ForeignKey};
pub use column::{Bitmap, Column, ColumnBuilder, Utf8Buffer};
pub use error::{EngineError, EngineResult};
pub use expr::{BinaryOp, Expr, ScalarFunc, UnaryOp};
pub use ops::{AggCall, AggFunc, Projection, SortKey, SortOrder};
pub use schema::{Field, Schema};
pub use table::{Observation, Row, RowRef, Rows, Table, TableBuilder};
pub use value::{CellRef, DataType, DateValue, Value};
