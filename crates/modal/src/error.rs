//! Error type for the multi-modal substrate.

use std::fmt;

/// Result alias for the modal crate.
pub type ModalResult<T> = Result<T, ModalError>;

/// Errors raised by multi-modal models and operators.
#[derive(Debug, Clone, PartialEq)]
pub enum ModalError {
    /// An image key could not be resolved in the image store.
    UnknownImage {
        /// The key that was looked up.
        key: String,
    },
    /// A question could not be understood by a QA model.
    UnanswerableQuestion {
        /// Which model rejected the question.
        model: String,
        /// The question text.
        question: String,
        /// Why it could not be answered.
        reason: String,
    },
    /// The transform DSL could not compile a natural-language description.
    TransformCompile {
        /// The description that could not be compiled.
        description: String,
        /// Why compilation failed.
        reason: String,
    },
    /// A transform program failed at runtime.
    TransformRuntime {
        /// Description of the failure.
        message: String,
    },
    /// A plot specification was invalid (missing axes, unknown kind, ...).
    InvalidPlot {
        /// Description of the problem.
        message: String,
    },
    /// The operator received arguments of the wrong type or arity.
    InvalidArguments {
        /// Which operator was called.
        operator: String,
        /// Description of the problem.
        message: String,
    },
    /// A perception backend failed to answer: the model behind it is
    /// unreachable, timed out or refused the call. Unlike every other
    /// variant this says nothing about the request, so asking again may
    /// succeed.
    Backend {
        /// The backend's model name.
        model: String,
        /// The transport's error, rendered as text.
        message: String,
    },
    /// Error bubbled up from the relational engine.
    Engine(caesura_engine::EngineError),
}

impl fmt::Display for ModalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModalError::UnknownImage { key } => {
                write!(f, "image '{key}' was not found in the image store")
            }
            ModalError::UnanswerableQuestion {
                model,
                question,
                reason,
            } => write!(
                f,
                "{model} cannot answer the question '{question}': {reason}"
            ),
            ModalError::TransformCompile {
                description,
                reason,
            } => write!(
                f,
                "could not generate a transformation for '{description}': {reason}"
            ),
            ModalError::TransformRuntime { message } => {
                write!(f, "transformation failed: {message}")
            }
            ModalError::InvalidPlot { message } => write!(f, "invalid plot: {message}"),
            ModalError::InvalidArguments { operator, message } => {
                write!(f, "invalid arguments for operator '{operator}': {message}")
            }
            ModalError::Backend { model, message } => {
                write!(
                    f,
                    "execution error: perception model '{model}' failed: {message}"
                )
            }
            ModalError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ModalError {}

impl From<caesura_engine::EngineError> for ModalError {
    fn from(e: caesura_engine::EngineError) -> Self {
        ModalError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_descriptive() {
        let err = ModalError::UnknownImage {
            key: "img/7.png".into(),
        };
        assert!(err.to_string().contains("img/7.png"));
        let err = ModalError::UnanswerableQuestion {
            model: "VisualQA".into(),
            question: "How many swords?".into(),
            reason: "no count target".into(),
        };
        assert!(err.to_string().contains("VisualQA"));
    }

    #[test]
    fn engine_errors_convert() {
        let engine_err = caesura_engine::EngineError::execution("boom");
        let modal: ModalError = engine_err.into();
        assert!(matches!(modal, ModalError::Engine(_)));
    }
}
