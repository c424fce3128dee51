//! # caesura-eval
//!
//! The evaluation suite of the CAESURA reproduction: the 48-query benchmark of
//! §4.2 (24 queries per dataset; 16 single-value / 16 table / 16 plot; half
//! multi-modal), ground-truth oracles computed from the synthetic data
//! generators, logical / physical plan grading, the five-way error taxonomy of
//! §4.3, and the report generators that reproduce Table 1 and Table 2.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod errors;
pub mod grade;
pub mod ledger;
pub mod oracle;
pub mod queries;
pub mod report;

pub use errors::{classify, ErrorCategory};
pub use grade::{
    grade, grade_logical, grade_physical, known_identifiers, matches_reference, Grade,
};
pub use ledger::{suite_ledger, suite_ledger_under, LEDGER_FILE};
pub use oracle::{fieldwork_reference_for, reference_for, Reference};
pub use queries::{
    benchmark_queries, fieldwork_queries, BenchmarkQuery, Capability, Dataset, Expectation,
    ExpectedOutput, Tier,
};
pub use report::{
    evaluate_both, evaluate_fieldwork, evaluate_fieldwork_concurrent, evaluate_model,
    evaluate_model_concurrent, render_per_query, render_table1, render_table2, render_table3,
    EvaluationConfig, EvaluationReport, QueryEvaluation,
};
