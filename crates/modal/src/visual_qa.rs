//! Simulated VisualQA model (the BLIP-2 substitute).
//!
//! The operator contract matches the paper: given an image and a natural
//! language question, produce a structured answer (an int for counting
//! questions, `yes`/`no` for existence questions). In the physical plan the operator's arguments are
//! `(image_column, new_column, question, result_dtype)` — see Figure 4, where
//! the VisualQA step is called with
//! `('image', 'num_swords', 'How many swords are depicted?', 'int')`.

use crate::batch::{PerQuestion, PerceptionBackend, PerceptionInput, PerceptionRequest};
use crate::error::{ModalError, ModalResult};
use crate::image::{normalize_entity, EntityKeys, ImageObject};
use caesura_engine::Value;

/// The kind of question a VisualQA model was asked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VisualQuestion {
    /// "How many X are depicted?" → integer count of entity X.
    Count {
        /// The entity being counted (normalized), as its annotation keys.
        entity: EntityKeys,
    },
    /// "Is/Are X depicted?" → yes/no.
    Exists {
        /// The entity phrase (may contain "and"), normalized, as its
        /// annotation keys.
        entity: EntityKeys,
    },
}

/// Parse a natural-language question into a [`VisualQuestion`].
///
/// The recognizer covers the phrasings the planner generates: "How many
/// swords are depicted?" (also "... is/do/can ...") and "Is Madonna and Child
/// depicted?" / "Are swords depicted?". Anything else is an
/// [`ModalError::UnanswerableQuestion`].
pub fn parse_visual_question(question: &str) -> ModalResult<VisualQuestion> {
    let q = question.trim().trim_end_matches('?').to_lowercase();
    let unanswerable = |reason: &str| {
        Err(ModalError::UnanswerableQuestion {
            model: "VisualQA".into(),
            question: question.to_string(),
            reason: reason.to_string(),
        })
    };

    if q.is_empty() {
        return unanswerable("the question is empty");
    }
    // Derived here, once per question, so that answering it about an image
    // normalizes nothing.
    let keys = |entity: &str| EntityKeys::of(&normalize_entity(entity));

    // Counting questions.
    if let Some(rest) = q.strip_prefix("how many ") {
        // "how many swords are depicted", "how many swords are depicted on the painting",
        // "how many swords are there", "how many swords".
        let entity = rest
            .split(" are ")
            .next()
            .unwrap_or(rest)
            .split(" is ")
            .next()
            .unwrap_or(rest)
            .split(" do ")
            .next()
            .unwrap_or(rest)
            .split(" can ")
            .next()
            .unwrap_or(rest)
            .trim();
        if entity.is_empty() {
            return unanswerable("could not identify what to count");
        }
        return Ok(VisualQuestion::Count {
            entity: keys(entity),
        });
    }

    // Existence questions: "is X depicted", "are X depicted".
    for prefix in ["is ", "are "] {
        if let Some(rest) = q.strip_prefix(prefix) {
            if let Some(entity) = rest
                .split(" depicted")
                .next()
                .filter(|_| rest.contains("depicted"))
            {
                return Ok(VisualQuestion::Exists {
                    entity: keys(entity),
                });
            }
        }
    }

    unanswerable("the question does not match any supported visual question pattern")
}

/// The simulated VisualQA model.
#[derive(Debug, Clone, Default)]
pub struct VisualQaModel;

impl VisualQaModel {
    /// The model.
    pub fn new() -> Self {
        VisualQaModel
    }

    /// Answer a question about an image. The returned [`Value`] is an
    /// `Int` for counting questions and a `Str` (`"yes"`/`"no"`) for
    /// existence questions, matching the `result_dtype` argument convention
    /// of the paper's VisualQA operator.
    pub fn answer(&self, image: &ImageObject, question: &str) -> ModalResult<Value> {
        Ok(answer_parsed(image, &parse_visual_question(question)?))
    }
}

/// [`VisualQaModel::answer`] to a question already parsed into `parsed`.
fn answer_parsed(image: &ImageObject, parsed: &VisualQuestion) -> Value {
    match parsed {
        VisualQuestion::Count { entity } => Value::Int(i64::from(image.count_of_keys(entity))),
        VisualQuestion::Exists { entity } => Value::str(if image.depicts_keys(entity) {
            "yes"
        } else {
            "no"
        }),
    }
}

impl PerceptionBackend for VisualQaModel {
    /// Answer a batch request-by-request; the simulated model has no
    /// per-call overhead, so batching only changes the dispatch granularity.
    /// A question is parsed once per run of requests sharing its `Arc`.
    fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
        let mut parsed = PerQuestion::new();
        requests
            .iter()
            .map(|request| match &request.input {
                PerceptionInput::Image(image) => {
                    match parsed.get(&request.question, parse_visual_question) {
                        Ok(parsed) => Ok(answer_parsed(image, parsed)),
                        Err(unanswerable) => Err(unanswerable.clone()),
                    }
                }
                PerceptionInput::Document(_) => Err(ModalError::InvalidArguments {
                    operator: "Visual Question Answering".to_string(),
                    message: "the VisualQA model looks at images, not TEXT documents".to_string(),
                }),
            })
            .collect()
    }

    /// Answers depend only on the image annotations, so the identity
    /// versions only the answering rules.
    fn identity(&self) -> String {
        "sim:visual_qa:v2".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> ImageObject {
        ImageObject::new("img/1.png")
            .with_object("Madonna", 1)
            .with_object("Child", 1)
            .with_object("sword", 3)
    }

    #[test]
    fn counting_question_from_figure4() {
        let model = VisualQaModel::new();
        let answer = model
            .answer(&image(), "How many swords are depicted?")
            .unwrap();
        assert_eq!(answer, Value::Int(3));
        let answer = model
            .answer(&image(), "How many horses are depicted?")
            .unwrap();
        assert_eq!(answer, Value::Int(0));
    }

    #[test]
    fn existence_question_from_figure2() {
        let model = VisualQaModel::new();
        let answer = model
            .answer(&image(), "Is Madonna and Child depicted?")
            .unwrap();
        assert_eq!(answer, Value::str("yes"));
        let answer = model.answer(&image(), "Is a horse depicted?").unwrap();
        assert_eq!(answer, Value::str("no"));
    }

    #[test]
    fn plural_existence_phrasing() {
        let model = VisualQaModel::new();
        assert_eq!(
            model.answer(&image(), "Are swords depicted?").unwrap(),
            Value::str("yes")
        );
    }

    #[test]
    fn unparseable_questions_are_rejected_with_reason() {
        let model = VisualQaModel::new();
        let err = model
            .answer(&image(), "Please transcribe the signature")
            .unwrap_err();
        assert!(matches!(err, ModalError::UnanswerableQuestion { .. }));
        assert!(err.to_string().contains("VisualQA"));
    }

    #[test]
    fn parser_extracts_entities() {
        assert_eq!(
            parse_visual_question("How many swords are depicted?").unwrap(),
            VisualQuestion::Count {
                entity: EntityKeys::of("sword")
            }
        );
        assert_eq!(
            parse_visual_question("Is Madonna and Child depicted?").unwrap(),
            VisualQuestion::Exists {
                entity: EntityKeys::of("madonna and child")
            }
        );
        assert!(parse_visual_question("").is_err());
    }
}
