//! # caesura-modal
//!
//! The multi-modal substrate of the CAESURA reproduction: annotated images,
//! text documents, and the simulated perception models (VisualQA / TextQA /
//! Image Select, substitutes for BLIP-2 and BART), plus the Python-UDF
//! substitute (a safe transform DSL) and the plotting operator (the seaborn
//! substitute).
//!
//! The models are *simulated*: they answer questions against structured
//! ground-truth annotations generated alongside the synthetic data (see the
//! `caesura-data` crate) instead of running neural networks. The operator
//! contracts — question in, per-row structured value out — are identical to
//! the paper's, which is what CAESURA's planner (and the evaluation of plan
//! quality) depends on.
//!
//! Perception-operator model calls are gathered, deduplicated, and dispatched
//! in configurable batches by the [`batch`] layer (see its module docs for
//! the knobs and the saved-call accounting); the operators in [`operators`]
//! are written against the [`PerceptionBackend`] trait, so the simulated
//! models and LLM-backed backends are interchangeable. A session-scoped
//! [`PerceptionCache`] ([`cache`]) can sit between dedup and dispatch to
//! collapse repeated `(input, question)` work across plan steps and across
//! queries over the same lake.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod batch;
pub mod cache;
pub mod document;
pub mod error;
pub mod image;
pub mod image_select;
pub mod operators;
pub mod plot;
pub mod text_qa;
pub mod transform;
pub mod visual_qa;

pub use batch::{
    BatchConfig, PerceptionBackend, PerceptionBatch, PerceptionCalls, PerceptionInput,
    PerceptionRequest,
};
pub use cache::{CacheConfig, CacheScope, PerceptionCache};
pub use document::TextDocument;
pub use error::{ModalError, ModalResult};
pub use image::{ImageObject, ImageStore};
pub use image_select::ImageSelectModel;
pub use operators::OperatorKind;
pub use plot::{Plot, PlotKind, PlotPoint, PlotSpec};
pub use text_qa::TextQaModel;
pub use transform::{TransformCodegen, TransformProgram};
pub use visual_qa::VisualQaModel;
