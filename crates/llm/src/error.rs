//! Error type for the LLM substrate.

use std::fmt;

/// Result alias for the llm crate.
pub type LlmResult<T> = Result<T, LlmError>;

/// Errors raised while prompting a language model or parsing its output.
#[derive(Debug, Clone, PartialEq)]
pub enum LlmError {
    /// The model produced output that does not follow the requested format.
    MalformedResponse {
        /// Which phase the response belonged to.
        phase: String,
        /// Description of the parsing problem.
        message: String,
        /// The offending response text (possibly truncated).
        response: String,
    },
    /// The prompt itself was missing information the model needs.
    MalformedPrompt {
        /// Description of the problem.
        message: String,
    },
    /// The (simulated) model could not produce an answer at all.
    ModelFailure {
        /// Model name.
        model: String,
        /// Description of the failure.
        message: String,
    },
    /// The dispatch was interrupted by a [`CancelToken`](crate::CancelToken)
    /// (explicit cancel or deadline expiry) before a response arrived.
    /// Returned by the `*_cancellable` transport methods; never produced by
    /// a model itself.
    Cancelled,
}

impl LlmError {
    /// Convenience constructor for [`LlmError::MalformedResponse`].
    pub fn malformed_response(
        phase: impl Into<String>,
        message: impl Into<String>,
        response: impl Into<String>,
    ) -> Self {
        let mut response = response.into();
        if response.len() > 400 {
            // Cut at a character boundary: a reply is outside input, and
            // byte 400 may fall inside a multi-byte character.
            let cut = (0..=400).rev().find(|&i| response.is_char_boundary(i));
            response.truncate(cut.unwrap_or(0));
        }
        LlmError::MalformedResponse {
            phase: phase.into(),
            message: message.into(),
            response,
        }
    }
}

impl fmt::Display for LlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlmError::MalformedResponse {
                phase,
                message,
                response,
            } => write!(
                f,
                "the language model response for the {phase} phase could not be parsed: {message} \
                 (response was: '{response}')"
            ),
            LlmError::MalformedPrompt { message } => {
                write!(f, "malformed prompt: {message}")
            }
            LlmError::ModelFailure { model, message } => {
                write!(f, "model '{model}' failed: {message}")
            }
            LlmError::Cancelled => {
                write!(f, "the dispatch was cancelled before the model responded")
            }
        }
    }
}

impl std::error::Error for LlmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_response_truncates_long_responses() {
        let long = "x".repeat(1000);
        let err = LlmError::malformed_response("planning", "no steps found", long);
        match err {
            LlmError::MalformedResponse { response, .. } => assert!(response.len() <= 400),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn malformed_response_cuts_multi_byte_replies_at_a_char_boundary() {
        for tail in ["é…", "İ", "“quoted”"] {
            let reply = "a".repeat(399) + tail + &"b".repeat(100);
            let err = LlmError::malformed_response("planning", "no steps found", reply);
            match err {
                LlmError::MalformedResponse { response, .. } => {
                    assert!(response.len() <= 400);
                    assert!(response.len() >= 399, "{} bytes kept", response.len());
                }
                _ => panic!("wrong variant"),
            }
        }
    }

    #[test]
    fn display_contains_phase_and_reason() {
        let err = LlmError::malformed_response("mapping", "missing Operator line", "...");
        let text = err.to_string();
        assert!(text.contains("mapping"));
        assert!(text.contains("missing Operator line"));
    }
}
