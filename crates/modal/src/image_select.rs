//! Simulated Image Select model.
//!
//! The paper's fourth multi-modal operator "selects images based on a
//! description and is also based on BLIP-2" (§4). Our substitute scores an
//! image against a free-text description by checking which content words of
//! the description are depicted or appear as attribute values.

use crate::batch::{PerQuestion, PerceptionBackend, PerceptionInput, PerceptionRequest};
use crate::error::{ModalError, ModalResult};
use crate::image::{normalize_entity, ImageObject};
use crate::noise::NoiseModel;
use caesura_engine::Value;

/// Words that carry no selective content and are ignored when matching.
const STOPWORDS: &[&str] = &[
    "a",
    "an",
    "the",
    "of",
    "in",
    "on",
    "with",
    "and",
    "or",
    "that",
    "which",
    "is",
    "are",
    "painting",
    "paintings",
    "image",
    "images",
    "picture",
    "pictures",
    "depicting",
    "depicted",
    "showing",
    "shown",
    "containing",
    "contains",
    "where",
    "all",
    "only",
    "select",
];

/// The simulated image-selection model.
#[derive(Debug, Clone, Default)]
pub struct ImageSelectModel {
    noise: NoiseModel,
}

impl ImageSelectModel {
    /// A noiseless model.
    pub fn new() -> Self {
        ImageSelectModel {
            noise: NoiseModel::none(),
        }
    }

    /// A model that corrupts a fraction of its decisions (deterministically).
    pub fn with_noise(noise: NoiseModel) -> Self {
        ImageSelectModel { noise }
    }

    /// The content terms of a description ("paintings depicting Madonna and
    /// Child" → `["madonna", "child"]`).
    pub fn content_terms(description: &str) -> Vec<String> {
        description
            .split(|c: char| !c.is_alphanumeric())
            .map(str::to_lowercase)
            .filter(|w| !w.is_empty() && !STOPWORDS.contains(&w.as_str()))
            .map(|w| normalize_entity(&w))
            .collect()
    }

    /// Whether an image matches a free-text description. Every content term
    /// must be depicted in the image or appear as an attribute value.
    pub fn matches(&self, image: &ImageObject, description: &str) -> bool {
        self.matches_terms(image, description, &Self::content_terms(description))
    }

    /// [`Self::matches`] given `description`'s [`Self::content_terms`].
    fn matches_terms(&self, image: &ImageObject, description: &str, terms: &[String]) -> bool {
        let mut result = if terms.is_empty() {
            // A description with no content words matches everything.
            true
        } else {
            terms.iter().all(|term| {
                image.depicts(term) || image.attributes.values().any(|v| v.to_lowercase() == *term)
            })
        };
        let noise_key = self
            .noise
            .key(|| format!("{}\u{1}{}", image.key, description));
        if self.noise.should_corrupt(&noise_key) {
            result = !result;
        }
        result
    }
}

impl PerceptionBackend for ImageSelectModel {
    /// Decide a batch request-by-request; the request's `question` carries
    /// the free-text description and the answer is a boolean keep/drop. A
    /// description's terms are extracted once per run of requests sharing
    /// its `Arc`.
    fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
        let mut terms = PerQuestion::new();
        requests
            .iter()
            .map(|request| match &request.input {
                PerceptionInput::Image(image) => {
                    let description = &request.question;
                    let terms = terms.get(description, Self::content_terms);
                    Ok(Value::Bool(self.matches_terms(image, description, terms)))
                }
                PerceptionInput::Document(_) => Err(ModalError::InvalidArguments {
                    operator: "Image Select".to_string(),
                    message: "the Image Select model looks at images, not TEXT documents"
                        .to_string(),
                }),
            })
            .collect()
    }

    /// Decisions depend only on the image annotations and the noise
    /// configuration, so the identity versions exactly those.
    fn identity(&self) -> String {
        format!(
            "sim:image_select:v1:noise={}@{}",
            self.noise.error_rate, self.noise.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn madonna() -> ImageObject {
        ImageObject::new("img/1.png")
            .with_object("Madonna", 1)
            .with_object("Child", 1)
            .with_attribute("style", "renaissance")
    }

    fn irises() -> ImageObject {
        ImageObject::new("img/2.png")
            .with_object("iris", 12)
            .with_object("flower", 12)
            .with_attribute("style", "impressionism")
    }

    #[test]
    fn matches_the_figure1_selection() {
        let model = ImageSelectModel::new();
        assert!(model.matches(&madonna(), "paintings depicting Madonna and Child"));
        assert!(!model.matches(&irises(), "paintings depicting Madonna and Child"));
    }

    #[test]
    fn matches_attribute_values_too() {
        let model = ImageSelectModel::new();
        assert!(model.matches(&irises(), "impressionism paintings"));
        assert!(!model.matches(&madonna(), "impressionism paintings"));
    }

    #[test]
    fn empty_description_matches_everything() {
        let model = ImageSelectModel::new();
        assert!(model.matches(&madonna(), "all the paintings"));
    }

    #[test]
    fn content_terms_strip_stopwords_and_plurals() {
        let terms = ImageSelectModel::content_terms("paintings depicting swords and flowers");
        assert_eq!(terms, vec!["sword", "flower"]);
    }

    #[test]
    fn noise_flips_decisions_deterministically() {
        let model = ImageSelectModel::with_noise(NoiseModel::with_rate(1.0, 5));
        let first = model.matches(&madonna(), "paintings depicting Madonna");
        let second = model.matches(&madonna(), "paintings depicting Madonna");
        assert!(!first);
        assert_eq!(first, second);
    }
}
