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
//!   validity bitmaps,
//! * [`dict`] — dictionary encoding for low-cardinality string columns
//!   (`CAESURA_DICT_ENCODE`), letting joins, group-bys, sorts, and equality
//!   filters run on `u32` codes instead of strings,
//! * [`Schema`] / [`Table`] — columnar tables (with a row-view iterator) and
//!   the prompt-rendering helpers CAESURA uses to describe data to the
//!   language model,
//! * [`Expr`] — scalar expressions with both a vectorized column-at-a-time
//!   evaluator and a row-at-a-time evaluator,
//! * [`ops`] — vectorized physical relational operators (filter, project,
//!   hash join, aggregation, sort, limit, distinct, union),
//! * [`parallel`] — the worker pool perception dispatch fans out on, and
//!   its [`ExecConfig`] `{ threads }` (`CAESURA_THREADS`),
//! * [`sql`] — a read-only SQL subset (parser + executor) used by the SQL
//!   physical operators of CAESURA's plans,
//! * [`Catalog`] — the named-table registry backing a data lake.
//!
//! Every relational operator runs sequentially on the calling thread, so
//! its result — float `SUM`/`AVG` included — does not depend on the thread
//! count.
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

pub mod catalog;
pub mod column;
pub mod dict;
pub mod error;
pub mod expr;
pub mod ops;
pub mod parallel;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;

pub use catalog::{Catalog, ForeignKey};
pub use column::{Bitmap, Column, ColumnBuilder};
pub use error::{EngineError, EngineResult};
pub use expr::{BinaryOp, CompiledExpr, Expr, ScalarFunc, UnaryOp};
pub use ops::{AggCall, AggFunc, JoinType, Projection, SortKey, SortOrder};
pub use parallel::ExecConfig;
pub use schema::{Field, Schema};
pub use table::{Observation, Row, RowRef, Rows, Table, TableBuilder};
pub use value::{DataType, DateValue, Value};
