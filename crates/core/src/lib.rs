//! # caesura-core
//!
//! The CAESURA system itself: Language-Model-Driven Query Planning over
//! multi-modal data lakes (CIDR 2024).
//!
//! A [`Caesura`] session wraps a [`DataLake`](caesura_data::DataLake) and an
//! [`LlmClient`](caesura_llm::LlmClient) and answers natural-language queries
//! by running the three phases of the paper: **discovery** (retrieval +
//! column relevance), **planning** (a step-wise logical plan generated from a
//! prompt), and **mapping interleaved with execution** (each step is mapped to
//! a physical operator, executed immediately, and the observation is fed back
//! into the next mapping prompt). Execution errors trigger the error-analysis
//! prompt of §3.2, which decides whether to retry the step with corrected
//! arguments or to backtrack to the planning phase.
//!
//! The session also owns the scaling state that must outlive a single query:
//! the `BatchConfig` its perception dispatch runs under (batch size and
//! worker threads), the session-scoped
//! perception answer cache (`caesura_modal::cache`) that collapses repeated
//! perception questions across plan steps and across queries over the
//! session's `Arc`-shared lake, and — since PR 5 — the serving scheduler
//! ([`serving`]): [`Caesura::submit`] enqueues a query on a persistent
//! worker pool and returns a [`QueryHandle`] supporting `wait` / `poll` /
//! cooperative `cancel` / a live `subscribe` trace stream, so many in-flight
//! queries share one lake, retriever index, and perception cache.
//! [`Caesura::submit_with`] tags a submission with a [`SubmitOptions`]
//! (tenant, priority, deadline; see [`sched`]), admission is typed
//! ([`AdmissionError`]) instead of unbounded queue wait, interactive work
//! preempts batch work at dequeue, and cancellation/deadlines interrupt even
//! mid-LLM-dispatch through the cancellable transport
//! (`caesura_llm::CancelToken`). The blocking
//! [`Caesura::run`] / [`Caesura::query`] wrappers are byte-identical to
//! `submit(q).wait()`.
//!
//! ```
//! use caesura_core::Caesura;
//! use caesura_data::{generate_artwork, ArtworkConfig};
//! use caesura_llm::SimulatedLlm;
//! use std::sync::Arc;
//!
//! let data = generate_artwork(&ArtworkConfig::small());
//! let caesura = Caesura::new(data.lake, Arc::new(SimulatedLlm::gpt4()));
//! let output = caesura.query("How many paintings are in the museum?").unwrap();
//! assert_eq!(output.kind(), "value");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod discovery;
pub mod error;
pub mod executor;
pub mod output;
pub mod sched;
pub mod serving;
pub mod session;
pub mod trace;

/// Per-query perception-call accounting: the counts each perception operator
/// returns, as the trace accumulates them.
pub use caesura_modal::PerceptionCalls;
pub use discovery::{lexical_relevant_columns, Retriever};
pub use error::{CoreError, CoreResult};
pub use executor::{Executor, StepOutcome, StepRecycler};
pub use output::QueryOutput;
pub use sched::{AdmissionError, Priority, SubmitOptions, TenantServingStats};
pub use serving::{QueryHandle, QueryStatus, ServingStats};
pub use session::{Caesura, CaesuraConfig, QueryRun};
pub use trace::{
    ExecutionTrace, Phase, PhaseTimings, PlanCacheCalls, PlanSource, SchedulingInfo, TraceEvent,
    TraceSink,
};
