//! Synthetic images: the substitute for the paper's Wikidata painting corpus.
//!
//! The original prototype runs BLIP-2 over real painting images. In this
//! reproduction an [`ImageObject`] carries a structured *scene annotation*
//! (which entities are depicted and how often, plus categorical attributes
//! such as the dominant colour). The simulated VisualQA / ImageSelect models
//! answer questions against this annotation, so the *operator contract* —
//! natural-language question in, per-image structured value out — is exactly
//! the one the planner has to reason about.
//!
//! ## Sharing contract
//!
//! An [`ImageStore`] is a handle on an immutable, `Arc`-shared hash map of
//! `Arc`-shared images. Cloning a store — and with it a `DataLake`, or the
//! per-query `Executor` built over one — bumps one reference count and
//! copies no annotation; a perception request borrows an image the same way
//! ([`ImageStore::get_shared`]). [`ImageStore::insert`] is copy-on-write: a
//! store that shares its map with a clone first takes a private copy of the
//! *map* (the images in it stay shared), so no handle ever observes another
//! handle's insert. Nothing on a query path clones an [`ImageObject`] itself;
//! `tests/alloc_budget.rs` holds that.
//!
//! An image's key is read-only ([`ImageObject::key`]) and hashed once, when
//! the image is built: every perception request about the image reuses that
//! [`keyed_hash`] instead of hashing the key again, and the key and its hash
//! cannot drift apart.

use caesura_store::keyed_hash;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A single annotated image.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageObject {
    /// Stable key, e.g. `img/17.png`; also used as the join key (`img_path`).
    /// Shared with the store's index and with every cache entry about this
    /// image, so it is never copied after ingest.
    key: Arc<str>,
    /// [`keyed_hash`] of `key`, computed once in [`ImageObject::new`].
    key_hash: u64,
    /// Depicted entities and how many of each are visible.
    /// Stored sorted so prompt renderings and answers are deterministic.
    pub objects: BTreeMap<String, u32>,
    /// Categorical attributes (e.g. `style -> baroque`, `dominant_color -> red`).
    pub attributes: BTreeMap<String, String>,
}

impl ImageObject {
    /// Create an image with no annotations.
    pub fn new(key: impl Into<String>) -> Self {
        let key: Arc<str> = Arc::from(key.into());
        ImageObject {
            key_hash: keyed_hash(&*key),
            key,
            objects: BTreeMap::new(),
            attributes: BTreeMap::new(),
        }
    }

    /// The image's key, shared with its store and its cache entries.
    pub fn key(&self) -> &Arc<str> {
        &self.key
    }

    /// [`keyed_hash`] of [`Self::key`], computed when the image was built.
    pub(crate) fn key_hash(&self) -> u64 {
        self.key_hash
    }

    /// Add a depicted entity with a count.
    pub fn with_object(mut self, name: impl Into<String>, count: u32) -> Self {
        self.objects.insert(normalize_entity(&name.into()), count);
        self
    }

    /// Add a categorical attribute.
    pub fn with_attribute(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes
            .insert(name.into().to_lowercase(), value.into());
        self
    }

    /// Number of instances of the entity `keys` were derived from visible in
    /// the image (0 if absent).
    pub fn count_of_keys(&self, keys: &EntityKeys) -> u32 {
        self.annotated(&keys.phrase)
    }

    /// The count annotated under a normalized `entity`.
    fn annotated(&self, entity: &str) -> u32 {
        if let Some(count) = self.objects.get(entity) {
            return *count;
        }
        // Fall back to a whole-word match for single-word entities, so that
        // "angel" still matches an annotation like "guardian angel". Phrases
        // with "and" must not fall back (otherwise "madonna and horse" would
        // match a "madonna" annotation).
        if !entity.contains(' ') {
            return self
                .objects
                .iter()
                .find(|(name, _)| name.split_whitespace().any(|word| word == entity))
                .map(|(_, count)| *count)
                .unwrap_or(0);
        }
        0
    }

    /// Whether the entity (or phrase of entities joined by "and") `keys` were
    /// derived from is depicted.
    pub fn depicts_keys(&self, keys: &EntityKeys) -> bool {
        let depicted = |entity: &String| self.annotated(entity) > 0;
        // "madonna and child" → require every part to be depicted.
        depicted(&keys.whole) || (keys.parts.len() > 1 && keys.parts.iter().all(depicted))
    }

    /// Human-readable caption (what a captioning model would produce).
    pub fn caption(&self) -> String {
        if self.objects.is_empty() {
            return "an abstract composition".to_string();
        }
        let parts: Vec<String> = self
            .objects
            .iter()
            .map(|(name, count)| {
                if *count == 1 {
                    format!("1 {name}")
                } else {
                    format!("{count} {name}s")
                }
            })
            .collect();
        format!("a painting depicting {}", parts.join(", "))
    }
}

/// The annotation keys an entity phrase is looked up under, derived once so
/// that a model asking many images about one entity normalizes it once.
///
/// [`normalize_entity`] is not idempotent (each pass strips one leading
/// article and one plural `s`), and [`ImageObject::depicts_keys`] has always
/// looked the phrase up one pass further than
/// [`ImageObject::count_of_keys`]; the keys keep both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityKeys {
    /// The normalized phrase: what `count_of_keys` looks up.
    phrase: String,
    /// What `depicts_keys` looks up as one annotation.
    whole: String,
    /// The phrase split at " and ": what `depicts_keys` looks up part by part.
    parts: Vec<String>,
}

impl EntityKeys {
    /// The keys of `entity`.
    pub fn of(entity: &str) -> Self {
        let phrase = normalize_entity(entity);
        EntityKeys {
            whole: normalize_entity(&phrase),
            parts: phrase.split(" and ").map(normalize_entity).collect(),
            phrase,
        }
    }
}

/// Normalize an entity phrase: lowercase, trim, strip leading articles, and
/// strip a trailing plural 's' from the last word (so "a sword" / "swords" /
/// "sword" all refer to the same annotation).
pub fn normalize_entity(entity: &str) -> String {
    let mut lowered = entity.trim().to_lowercase();
    for article in ["a ", "an ", "the "] {
        if let Some(rest) = lowered.strip_prefix(article) {
            lowered = rest.to_string();
            break;
        }
    }
    let words: Vec<&str> = lowered.split_whitespace().collect();
    if words.is_empty() {
        return String::new();
    }
    let mut out: Vec<String> = words.iter().map(|w| w.to_string()).collect();
    let last = out.last_mut().expect("non-empty");
    if last.ends_with('s') && !last.ends_with("ss") && last.len() > 3 {
        last.pop();
    }
    out.join(" ")
}

/// A keyed collection of annotated images, addressable by image key.
/// Cloning shares the collection; see the [module docs](self) for the
/// copy-on-write contract.
#[derive(Debug, Clone, Default)]
pub struct ImageStore {
    images: Arc<HashMap<Arc<str>, Arc<ImageObject>>>,
}

impl ImageStore {
    /// Create an empty store.
    pub fn new() -> Self {
        ImageStore::default()
    }

    /// Insert an image (replacing any previous image with the same key).
    /// Copy-on-write: clones of this store keep answering what they held.
    pub fn insert(&mut self, image: ImageObject) {
        Arc::make_mut(&mut self.images).insert(Arc::clone(&image.key), Arc::new(image));
    }

    /// Look an image up by key.
    pub fn get(&self, key: &str) -> Option<&ImageObject> {
        self.get_shared(key).map(Arc::as_ref)
    }

    /// Look an image up by key as the shared handle a perception request
    /// holds on to.
    pub fn get_shared(&self, key: &str) -> Option<&Arc<ImageObject>> {
        self.images.get(key)
    }

    /// Number of stored images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn madonna_image() -> ImageObject {
        ImageObject::new("img/1.png")
            .with_object("Madonna", 1)
            .with_object("Child", 1)
            .with_object("sword", 2)
    }

    fn count(image: &ImageObject, entity: &str) -> u32 {
        image.count_of_keys(&EntityKeys::of(entity))
    }

    #[test]
    fn count_of_handles_plural_and_case() {
        let img = madonna_image();
        assert_eq!(count(&img, "sword"), 2);
        assert_eq!(count(&img, "Swords"), 2);
        assert_eq!(count(&img, "SWORD"), 2);
        assert_eq!(count(&img, "horse"), 0);
    }

    #[test]
    fn depicts_supports_multi_entity_phrases() {
        let img = madonna_image();
        let depicts = |entity| img.depicts_keys(&EntityKeys::of(entity));
        assert!(depicts("Madonna"));
        assert!(depicts("Madonna and Child"));
        assert!(!depicts("Madonna and Horse"));
    }

    /// `EntityKeys` hold exactly the strings `count_of` and `depicts` derived
    /// when they normalized on every call — also where a second pass strips
    /// a second article or plural.
    #[test]
    fn entity_keys_look_up_what_per_call_normalization_did() {
        fn count_of(image: &ImageObject, entity: &str) -> u32 {
            image.annotated(&normalize_entity(entity))
        }
        fn depicts(image: &ImageObject, entity: &str) -> bool {
            let phrase = normalize_entity(entity);
            if count_of(image, &phrase) > 0 {
                return true;
            }
            let parts: Vec<&str> = phrase.split(" and ").collect();
            parts.len() > 1 && parts.iter().all(|p| count_of(image, p) > 0)
        }
        let images = [
            madonna_image(),
            ImageObject::new("img/2.png")
                .with_object("the sword", 2)
                .with_object("guardian angel", 1)
                .with_object("glasses", 4),
            ImageObject::new("img/3.png"),
        ];
        let phrases = [
            "swords",
            "the the swords",
            "swordss",
            "angels",
            "glasses",
            "Madonna and Child",
            "a the sword",
            "the swords and an angels",
            "a madonna and horse",
            "",
        ];
        for image in &images {
            for phrase in phrases {
                // The VisualQA parser normalizes once before deriving keys.
                for entity in [phrase.to_string(), normalize_entity(phrase)] {
                    let keys = EntityKeys::of(&entity);
                    assert_eq!(image.count_of_keys(&keys), count_of(image, &entity));
                    assert_eq!(image.depicts_keys(&keys), depicts(image, &entity));
                }
            }
        }
        assert_eq!(
            EntityKeys::of("the the swordss and an angels"),
            EntityKeys {
                phrase: "the swordss and an angel".into(),
                whole: "swordss and an angel".into(),
                parts: vec!["swordss".into(), "angel".into()],
            }
        );
    }

    #[test]
    fn caption_describes_contents() {
        let caption = madonna_image().caption();
        assert!(caption.contains("madonna"));
        assert!(caption.contains("2 swords"));
        assert_eq!(ImageObject::new("x").caption(), "an abstract composition");
    }

    #[test]
    fn normalize_entity_strips_plurals_conservatively() {
        assert_eq!(normalize_entity("Swords"), "sword");
        assert_eq!(normalize_entity("glass"), "glass"); // double-s kept
        assert_eq!(normalize_entity("Madonna and Child"), "madonna and child");
        assert_eq!(normalize_entity("  Dogs "), "dog");
    }

    #[test]
    fn store_inserts_and_looks_up_by_key() {
        let mut store = ImageStore::new();
        assert!(store.is_empty());
        store.insert(ImageObject::new("img/2.png"));
        store.insert(ImageObject::new("img/1.png").with_object("sword", 1));
        store.insert(ImageObject::new("img/1.png").with_object("sword", 3));
        assert_eq!(store.len(), 2, "a key inserted twice is replaced");
        assert_eq!(count(store.get("img/1.png").unwrap(), "sword"), 3);
        assert_eq!(&*store.get("img/2.png").unwrap().key, "img/2.png");
        assert!(store.get("img/9.png").is_none());
    }

    #[test]
    fn inserting_into_a_clone_leaves_the_original_untouched() {
        let mut original = ImageStore::new();
        original.insert(ImageObject::new("img/1.png").with_object("sword", 2));
        original.insert(ImageObject::new("img/2.png"));
        let mut clone = original.clone();
        let shared = |a: &ImageStore, b: &ImageStore, key| {
            Arc::ptr_eq(a.get_shared(key).unwrap(), b.get_shared(key).unwrap())
        };
        assert!(
            shared(&original, &clone, "img/1.png"),
            "a clone copies nothing"
        );

        clone.insert(ImageObject::new("img/1.png").with_object("sword", 9));
        clone.insert(ImageObject::new("img/3.png"));
        assert_eq!(count(original.get("img/1.png").unwrap(), "sword"), 2);
        assert_eq!(original.len(), 2);
        assert!(original.get("img/3.png").is_none());
        assert_eq!(count(clone.get("img/1.png").unwrap(), "sword"), 9);
        assert_eq!(clone.len(), 3);
        assert!(clone.get("img/3.png").is_some());
        // Only the map was copied: untouched images are still shared.
        assert!(shared(&original, &clone, "img/2.png"));
    }
}
