//! LLM-backed perception: serve the modal layer's batched perception
//! requests through an [`LlmClient`].
//!
//! The paper's perception operators (VisualQA, TextQA, Image Select) are
//! neural models behind one-call-per-input APIs. This adapter makes any
//! [`LlmClient`] usable as a [`PerceptionBackend`]: each
//! [`PerceptionRequest`] of a batch is rendered into a [`Conversation`]
//! (document or image annotation plus the question), the whole batch is
//! served with **one** [`LlmClient::complete_batch`] round trip, and the raw
//! text answers flow back to the operator layer, which coerces them into the
//! declared result type.
//!
//! Combined with `modal::batch`'s dedup, a duplicate-heavy workload costs
//! one LLM completion per *unique* `(input, question)` pair — wrap the
//! client in [`CountingLlm`](crate::CountingLlm) to observe the saved calls.

use crate::chat::{ChatMessage, Conversation};
use crate::client::LlmClient;
use caesura_engine::Value;
use caesura_modal::{
    ModalError, ModalResult, PerceptionBackend, PerceptionInput, PerceptionRequest,
};

/// An [`LlmClient`]-backed perception model.
pub struct PerceptionLlm<C> {
    client: C,
}

impl<C: LlmClient> PerceptionLlm<C> {
    /// Wrap a client.
    pub fn new(client: C) -> Self {
        PerceptionLlm { client }
    }

    /// Access the wrapped client (e.g. to read a `CountingLlm`'s usage).
    pub fn inner(&self) -> &C {
        &self.client
    }

    /// Render one perception request as a chat conversation.
    fn conversation(request: &PerceptionRequest) -> Conversation {
        let (modality, input) = match &request.input {
            PerceptionInput::Document(text) => ("document", text.to_string()),
            // The annotation caption plays the role of the image pixels; the
            // key keeps distinct images distinguishable for the model.
            PerceptionInput::Image(image) => {
                ("image", format!("{} ({})", image.caption(), image.key))
            }
        };
        Conversation::new()
            .with(ChatMessage::system(format!(
                "You are a perception model. Answer the question about the {modality} with a \
                 single short value (a number, yes/no, or a short phrase). Do not explain."
            )))
            .with(ChatMessage::human(format!(
                "The {modality} is:\n{input}\n\nQuestion: {}",
                request.question
            )))
    }
}

impl<C: LlmClient> PerceptionBackend for PerceptionLlm<C> {
    fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
        let conversations: Vec<Conversation> = requests.iter().map(Self::conversation).collect();
        self.client
            .complete_batch(&conversations)
            .into_iter()
            .map(|result| match result {
                Ok(text) => Ok(Value::str(text.trim())),
                Err(e) => Err(ModalError::Engine(caesura_engine::EngineError::execution(
                    format!("perception model '{}' failed: {e}", self.client.name()),
                ))),
            })
            .collect()
    }

    /// Answers depend on the wrapped model and this adapter's prompt
    /// rendering; bump the `v1` on prompt-format changes so stored answers
    /// go cold instead of going stale.
    fn identity(&self) -> String {
        format!("llm:{}:v1", self.client.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CountingLlm, ScriptedLlm};
    use caesura_modal::ImageObject;

    fn doc_request(doc: &str, question: &str) -> PerceptionRequest {
        PerceptionRequest {
            input: PerceptionInput::Document(doc.into()),
            question: question.into(),
        }
    }

    #[test]
    fn batches_are_served_with_one_dispatch() {
        let llm = PerceptionLlm::new(CountingLlm::new(ScriptedLlm::new(vec![
            "102".into(),
            "110".into(),
        ])));
        let answers = llm.answer_batch(&[
            doc_request("report", "How many points did Heat score?"),
            doc_request("report", "How many points did Spurs score?"),
        ]);
        assert_eq!(answers[0].as_ref().unwrap(), &Value::str("102"));
        assert_eq!(answers[1].as_ref().unwrap(), &Value::str("110"));
        let usage = llm.inner().usage();
        assert_eq!(usage.calls, 2);
        assert_eq!(usage.batches, 1);
    }

    #[test]
    fn failures_surface_as_execution_errors() {
        let llm = PerceptionLlm::new(ScriptedLlm::new(vec![]));
        let answers = llm.answer_batch(&[doc_request("report", "Who won?")]);
        let err = answers[0].as_ref().unwrap_err();
        assert!(err.to_string().contains("perception model"));
        assert!(err.to_string().contains("scripted"));
    }

    #[test]
    fn image_requests_render_the_annotation_caption() {
        let request = PerceptionRequest {
            input: PerceptionInput::Image(
                ImageObject::new("img/1.png").with_object("sword", 2).into(),
            ),
            question: "How many swords are depicted?".into(),
        };
        let convo = PerceptionLlm::<ScriptedLlm>::conversation(&request);
        let text = convo.render();
        assert!(text.contains("2 swords"));
        assert!(text.contains("img/1.png"));
        assert!(text.contains("How many swords"));
    }
}
