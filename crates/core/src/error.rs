//! Error type for the CAESURA core.

use caesura_engine::EngineError;
use caesura_llm::LlmError;
use caesura_modal::ModalError;
use std::fmt;

/// Result alias for the core crate.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors raised while planning or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The relational engine failed.
    Engine(EngineError),
    /// A multi-modal operator failed.
    Modal(ModalError),
    /// The language model failed or produced unparseable output.
    Llm(LlmError),
    /// The plan could not be executed even after error recovery.
    PlanFailed {
        /// The step that ultimately failed.
        step: usize,
        /// Description of that step.
        step_description: String,
        /// The last error message.
        message: String,
        /// How many decisions the model made for the step: every executed
        /// attempt, plus a final decision that repeated a failed one and
        /// was therefore not executed.
        attempts: usize,
    },
    /// The planning phase produced an empty or unusable plan.
    PlanningFailed {
        /// Why planning failed.
        message: String,
    },
    /// The discovery phase found no relevant data for the query.
    NoRelevantData {
        /// The query that could not be grounded.
        query: String,
    },
    /// An operator decision referenced a table that does not exist.
    MissingInput {
        /// The table that was not found.
        table: String,
    },
    /// The query was cancelled through its `QueryHandle` before it could
    /// complete. Cancellation is cooperative: the session checks for it
    /// between plan steps and before every LLM / perception dispatch, so a
    /// cancelled run stops at the next checkpoint without leaving partial
    /// state behind (each query owns a fresh executor).
    Cancelled,
    /// The query's worker panicked mid-run (a bug in an operator or a
    /// panicking model client). The scheduler catches the unwind so the
    /// submitter's `wait()` still returns — with this error — and the
    /// worker thread survives to serve subsequent queries.
    Internal {
        /// The panic payload, rendered as text.
        message: String,
    },
    /// The persistent cache store could not be opened at session
    /// construction — most commonly because another live session holds the
    /// directory's lock file (see `caesura_store::StoreError::Locked`), or
    /// because the directory is not creatable/writable. Only
    /// [`Caesura::try_with_config`](crate::Caesura::try_with_config)
    /// surfaces this; queries themselves never fail with it (store write
    /// errors during a run are swallowed by the cache tiers).
    StoreUnavailable {
        /// The underlying store error, rendered as text.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Engine(e) => write!(f, "{e}"),
            CoreError::Modal(e) => write!(f, "{e}"),
            CoreError::Llm(e) => write!(f, "{e}"),
            CoreError::PlanFailed {
                step,
                step_description,
                message,
                attempts,
            } => write!(
                f,
                "step {step} ('{step_description}') could not be executed after {attempts} attempt(s): {message}"
            ),
            CoreError::PlanningFailed { message } => {
                write!(f, "the planning phase failed: {message}")
            }
            CoreError::NoRelevantData { query } => {
                write!(f, "no relevant data sources were found for the query '{query}'")
            }
            CoreError::MissingInput { table } => {
                write!(f, "the plan references table '{table}' which has not been produced")
            }
            CoreError::Cancelled => write!(f, "the query was cancelled before it completed"),
            CoreError::Internal { message } => {
                write!(f, "the query's worker panicked: {message}")
            }
            CoreError::StoreUnavailable { message } => {
                write!(f, "the persistent cache store could not be opened: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl CoreError {
    /// Whether this error, raised by executing an operator decision, is a
    /// verdict on the decision: executing the same decision against the same
    /// state must fail the same way. True for engine, missing-input and modal
    /// errors; false for a perception backend that failed to answer
    /// ([`ModalError::Backend`]), a language-model failure, a cancellation,
    /// a panic — which another try may not repeat — and for the errors no
    /// step execution raises.
    pub fn is_deterministic(&self) -> bool {
        match self {
            CoreError::Engine(_) | CoreError::MissingInput { .. } => true,
            CoreError::Modal(error) => !matches!(error, ModalError::Backend { .. }),
            CoreError::Llm(_)
            | CoreError::Cancelled
            | CoreError::Internal { .. }
            | CoreError::PlanFailed { .. }
            | CoreError::PlanningFailed { .. }
            | CoreError::NoRelevantData { .. }
            | CoreError::StoreUnavailable { .. } => false,
        }
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

impl From<ModalError> for CoreError {
    fn from(e: ModalError) -> Self {
        CoreError::Modal(e)
    }
}

impl From<LlmError> for CoreError {
    fn from(e: LlmError) -> Self {
        CoreError::Llm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let err: CoreError = EngineError::execution("boom").into();
        assert!(matches!(err, CoreError::Engine(_)));
        let err: CoreError = ModalError::TransformRuntime {
            message: "bad".into(),
        }
        .into();
        assert!(matches!(err, CoreError::Modal(_)));
        let err: CoreError = LlmError::MalformedPrompt {
            message: "bad".into(),
        }
        .into();
        assert!(matches!(err, CoreError::Llm(_)));
        let err = CoreError::PlanFailed {
            step: 3,
            step_description: "Select rows".into(),
            message: "unknown column".into(),
            attempts: 2,
        };
        let text = err.to_string();
        assert!(text.contains("step 3"));
        assert!(text.contains("2 attempt"));
        assert!(CoreError::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn only_verdicts_on_a_decision_are_deterministic() {
        let modal = |error: ModalError| CoreError::Modal(error);
        let deterministic = [
            CoreError::Engine(EngineError::execution("unknown column")),
            CoreError::MissingInput {
                table: "joined".into(),
            },
            modal(ModalError::InvalidPlot {
                message: "missing column".into(),
            }),
            modal(ModalError::Engine(EngineError::execution("boom"))),
        ];
        for error in &deterministic {
            assert!(error.is_deterministic(), "{error:?}");
        }
        let transient = [
            modal(ModalError::Backend {
                model: "remote".into(),
                message: "timed out".into(),
            }),
            CoreError::Llm(LlmError::ModelFailure {
                model: "remote".into(),
                message: "timed out".into(),
            }),
            CoreError::Cancelled,
            CoreError::Internal {
                message: "panicked".into(),
            },
        ];
        for error in &transient {
            assert!(!error.is_deterministic(), "{error:?}");
        }
    }
}
