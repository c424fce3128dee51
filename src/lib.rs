//! # CAESURA-RS
//!
//! A Rust reproduction of **"CAESURA: Language Models as Multi-Modal Query
//! Planners"** (CIDR 2024): a query planner that translates natural-language
//! queries over multi-modal data lakes (tables + images + text documents) into
//! executable plans mixing relational operators with VisualQA, TextQA,
//! Python-UDF, and Plot operators.
//!
//! This crate is a thin facade that re-exports the workspace crates:
//!
//! * [`engine`] — the in-memory relational engine (the SQLite substitute),
//! * [`modal`] — annotated images / documents and the simulated perception
//!   models (the BLIP-2 / BART substitutes), the transform DSL and plotting,
//! * [`llm`] — prompts, the plan grammar, and the simulated GPT-4 /
//!   ChatGPT-3.5 backends,
//! * [`data`] — the synthetic artwork and rotowire data lakes,
//! * [`core`] — the CAESURA planner itself (discovery, planning, mapping,
//!   interleaved execution, error recovery),
//! * [`eval`] — the 48-query benchmark, grading, and Table 1/2 reports,
//! * [`store`] — the crash-safe on-disk KV store backing the optional
//!   durable tier under the perception and plan caches.
//!
//! ## Quickstart
//!
//! ```
//! use caesura::prelude::*;
//! use std::sync::Arc;
//!
//! let data = generate_artwork(&ArtworkConfig::small());
//! let caesura = Caesura::new(data.lake, Arc::new(SimulatedLlm::gpt4()));
//! let output = caesura
//!     .query("How many paintings depict Madonna and Child?")
//!     .unwrap();
//! assert_eq!(output.kind(), "value");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use caesura_core as core;
pub use caesura_data as data;
pub use caesura_engine as engine;
pub use caesura_eval as eval;
pub use caesura_llm as llm;
pub use caesura_modal as modal;
pub use caesura_store as store;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use caesura_core::{
        AdmissionError, Caesura, CaesuraConfig, CoreError, QueryHandle, QueryOutput, QueryRun,
        QueryStatus, ServingStats, SubmitOptions, TenantServingStats,
    };
    pub use caesura_data::{
        generate_artwork, generate_fieldwork, generate_rotowire, ArtworkConfig, DataLake,
        FieldworkConfig, RotowireConfig,
    };
    pub use caesura_engine::{Catalog, DataType, Schema, Table, TableBuilder, Value};
    pub use caesura_llm::{LlmClient, ModelProfile, SimulatedLlm};
    pub use caesura_modal::{OperatorKind, Plot, PlotKind};
}
