//! Simulated VisualQA model (the BLIP-2 substitute).
//!
//! The operator contract matches the paper: given an image and a natural
//! language question, produce a structured answer (an int for counting
//! questions, `yes`/`no` for existence questions, a string for descriptive
//! questions). In the physical plan the operator's arguments are
//! `(image_column, new_column, question, result_dtype)` — see Figure 4, where
//! the VisualQA step is called with
//! `('image', 'num_swords', 'How many swords are depicted?', 'int')`.

use crate::batch::{PerQuestion, PerceptionBackend, PerceptionInput, PerceptionRequest};
use crate::error::{ModalError, ModalResult};
use crate::image::{normalize_entity, EntityKeys, ImageObject};
use crate::noise::NoiseModel;
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
    /// "What is depicted?" → caption / list of entities.
    Describe,
    /// "What is the `<attribute>`?" → categorical attribute lookup.
    Attribute {
        /// Attribute name, lowercased.
        name: String,
    },
}

/// Parse a natural-language question into a [`VisualQuestion`].
///
/// The recognizer is intentionally small but covers the phrasings the planner
/// generates ("How many swords are depicted?", "Is Madonna and Child
/// depicted?", "What is depicted in the image?", "What is the style?").
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

    // Existence questions: "is X depicted", "are X depicted", "does the image show X",
    // "is X visible", "is there a X".
    for prefix in ["is there a ", "is there an ", "are there "] {
        if let Some(rest) = q.strip_prefix(prefix) {
            let entity = rest
                .split(" in ")
                .next()
                .unwrap_or(rest)
                .split(" depicted")
                .next()
                .unwrap_or(rest)
                .trim();
            return Ok(VisualQuestion::Exists {
                entity: keys(entity),
            });
        }
    }
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
            if let Some(entity) = rest
                .split(" visible")
                .next()
                .filter(|_| rest.contains("visible"))
            {
                return Ok(VisualQuestion::Exists {
                    entity: keys(entity),
                });
            }
            if let Some(entity) = rest
                .split(" shown")
                .next()
                .filter(|_| rest.contains("shown"))
            {
                return Ok(VisualQuestion::Exists {
                    entity: keys(entity),
                });
            }
        }
    }
    if let Some(rest) = q.strip_prefix("does the image show ") {
        return Ok(VisualQuestion::Exists { entity: keys(rest) });
    }
    if let Some(rest) = q.strip_prefix("does the painting show ") {
        return Ok(VisualQuestion::Exists { entity: keys(rest) });
    }

    // Attribute questions: "what is the style", "what is the dominant color".
    if let Some(rest) = q.strip_prefix("what is the ") {
        let name = rest
            .split(" of ")
            .next()
            .unwrap_or(rest)
            .split(" depicted")
            .next()
            .unwrap_or(rest)
            .trim();
        if !name.is_empty() && name != "image" {
            return Ok(VisualQuestion::Attribute {
                name: name.to_string(),
            });
        }
    }

    // Descriptive questions.
    if q.starts_with("what is depicted")
        || q.starts_with("what does the image show")
        || q.starts_with("describe")
        || q.starts_with("what objects")
    {
        return Ok(VisualQuestion::Describe);
    }

    unanswerable("the question does not match any supported visual question pattern")
}

/// The simulated VisualQA model.
#[derive(Debug, Clone, Default)]
pub struct VisualQaModel {
    noise: NoiseModel,
}

impl VisualQaModel {
    /// A noiseless model.
    pub fn new() -> Self {
        VisualQaModel {
            noise: NoiseModel::none(),
        }
    }

    /// A model that corrupts a fraction of its answers (deterministically).
    pub fn with_noise(noise: NoiseModel) -> Self {
        VisualQaModel { noise }
    }

    /// Answer a question about an image. The returned [`Value`] is an
    /// `Int` for counting questions, a `Str` (`"yes"`/`"no"`) for existence
    /// questions, and a `Str` otherwise — matching the `result_dtype`
    /// argument convention of the paper's VisualQA operator.
    pub fn answer(&self, image: &ImageObject, question: &str) -> ModalResult<Value> {
        Ok(self.answer_parsed(image, question, &parse_visual_question(question)?))
    }

    /// [`Self::answer`] to a question already parsed into `parsed`.
    fn answer_parsed(&self, image: &ImageObject, question: &str, parsed: &VisualQuestion) -> Value {
        let noise_key = self.noise.key(|| format!("{}\u{1}{}", image.key, question));
        match parsed {
            VisualQuestion::Count { entity } => {
                let mut count = i64::from(image.count_of_keys(entity));
                if self.noise.should_corrupt(&noise_key) {
                    count = self.noise.perturb_count(&noise_key, count);
                }
                Value::Int(count)
            }
            VisualQuestion::Exists { entity } => {
                let mut depicted = image.depicts_keys(entity);
                if self.noise.should_corrupt(&noise_key) {
                    depicted = !depicted;
                }
                Value::str(if depicted { "yes" } else { "no" })
            }
            VisualQuestion::Describe => Value::str(image.caption()),
            VisualQuestion::Attribute { name } => match image.attribute(name) {
                Some(value) => Value::str(value),
                None => Value::str("unknown"),
            },
        }
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
                    let question = &request.question;
                    match parsed.get(question, parse_visual_question) {
                        Ok(parsed) => Ok(self.answer_parsed(image, question, parsed)),
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

    /// Answers depend only on the image annotations and the noise
    /// configuration, so the identity versions exactly those.
    fn identity(&self) -> String {
        format!(
            "sim:visual_qa:v1:noise={}@{}",
            self.noise.error_rate, self.noise.seed
        )
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
            .with_attribute("style", "baroque")
            .with_attribute("dominant color", "red")
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
    fn alternative_existence_phrasings() {
        let model = VisualQaModel::new();
        for question in [
            "Are swords depicted?",
            "Is there a sword in the painting?",
            "Does the image show swords?",
            "Is a sword visible?",
        ] {
            assert_eq!(
                model.answer(&image(), question).unwrap(),
                Value::str("yes"),
                "failed for {question}"
            );
        }
    }

    #[test]
    fn describe_and_attribute_questions() {
        let model = VisualQaModel::new();
        let caption = model.answer(&image(), "What is depicted?").unwrap();
        assert!(caption.to_string().contains("madonna"));
        let style = model.answer(&image(), "What is the style?").unwrap();
        assert_eq!(style, Value::str("baroque"));
        let color = model
            .answer(&image(), "What is the dominant color?")
            .unwrap();
        assert_eq!(color, Value::str("red"));
        let missing = model.answer(&image(), "What is the genre?").unwrap();
        assert_eq!(missing, Value::str("unknown"));
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
    fn noise_flips_answers_deterministically() {
        let noisy = VisualQaModel::with_noise(NoiseModel::with_rate(1.0, 3));
        let a = noisy
            .answer(&image(), "Is Madonna and Child depicted?")
            .unwrap();
        assert_eq!(a, Value::str("no"));
        let b = noisy
            .answer(&image(), "Is Madonna and Child depicted?")
            .unwrap();
        assert_eq!(a, b, "noise must be deterministic");
        let count = noisy
            .answer(&image(), "How many swords are depicted?")
            .unwrap();
        assert_ne!(count, Value::Int(3));
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
