//! Physical relational operators.
//!
//! Each operator is a pure function from input [`Table`](crate::table::Table)s
//! to an output table. CAESURA's mapping phase composes these (via the SQL
//! front-end or directly) into executable physical plans.

mod aggregate;
mod filter;
mod join;
mod project;
mod set;
mod sort;

pub use aggregate::{aggregate, AggCall, AggFunc};
pub use filter::filter;
pub use join::hash_join;
pub use project::{project, Projection};
pub use set::{distinct, limit, union_all};
pub use sort::{sort, SortKey, SortOrder};
