//! # caesura-llm
//!
//! The language-model substrate of the CAESURA reproduction.
//!
//! CAESURA treats the LLM as a black box that consumes prompts and produces
//! text; this crate provides both sides of that contract:
//!
//! * the **prompt builders** for the discovery / planning / mapping / error
//!   phases (Figure 3 of the paper),
//! * the **plan grammar** — structured logical plans, operator decisions, and
//!   error analyses, with render/parse functions for the textual output
//!   formats the prompts request,
//! * the [`LlmClient`] abstraction, and
//! * the [`SimulatedLlm`]: a deterministic stand-in for GPT-4 / ChatGPT-3.5
//!   that parses the prompts, analyzes the query ([`intent`]), synthesizes
//!   step-wise plans ([`synthesis`]), maps steps to operators ([`mapping`]),
//!   and injects calibrated mistakes per [`ModelProfile`] so that the paper's
//!   Table 1 / Table 2 behaviour is reproducible without API access.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod cancel;
pub mod chat;
pub mod client;
pub mod context;
pub mod error;
pub mod intent;
pub mod mapping;
pub mod perception;
pub mod plan;
pub mod plan_cache;
pub mod profile;
pub mod prompt;
pub mod sim;
pub mod synthesis;
pub mod template;

pub use cancel::{CancelStatus, CancelToken};
pub use chat::{ChatMessage, Conversation, Role};
pub use client::{CountingLlm, GatedLlm, LlmClient, LlmUsage, ScriptedLlm};
pub use context::{PromptContext, PromptKind, TableSketch};
pub use error::{LlmError, LlmResult};
pub use intent::{analyze, AggKind, AttributeRef, OutputKind, QueryIntent};
pub use perception::PerceptionLlm;
pub use plan::{ErrorAnalysis, LogicalPlan, LogicalStep, OperatorDecision};
pub use plan_cache::{
    CachedPlan, PlanCache, PlanCacheConfig, PlanCacheStats, PlanInsertOutcome, PlanTier,
};
pub use profile::{ErrorInjector, ModelProfile};
pub use prompt::{MappingRequest, PromptBuilder, PromptConfig, RelevantColumn, StepObservation};
pub use sim::SimulatedLlm;
pub use synthesis::synthesize;
pub use template::{normalize_query, schema_fingerprint, Literal, QueryTemplate};
