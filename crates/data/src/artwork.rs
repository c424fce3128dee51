//! The synthetic artwork data lake (the Wikidata-paintings substitute).
//!
//! The paper builds its artwork dataset from Wikidata: a metadata table with
//! "title, inception, movement, etc. for all Wikidata entities that are
//! instances of 'painting'", plus an image corpus of the artworks (§4). This
//! generator produces the same shape synthetically and deterministically:
//!
//! * `paintings_metadata(title, artist, inception, movement, genre, img_path)`
//! * `painting_images(img_path, image)` — the image collection presented as a
//!   two-column table so it can be joined like any other table (Figure 4),
//! * an [`ImageStore`](caesura_modal::ImageStore) with per-image scene
//!   annotations that the simulated VisualQA / Image Select models read.
//!
//! The generator also returns plain [`PaintingRecord`]s (the ground truth) so
//! the evaluation crate can compute reference answers without re-implementing
//! the planner.

use crate::lake::DataLake;
use crate::names;
use caesura_engine::{DataType, DateValue, ForeignKey, Schema, TableBuilder, Value};
use caesura_modal::ImageObject;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Configuration for the artwork generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtworkConfig {
    /// Number of paintings to generate.
    pub num_paintings: usize,
    /// RNG seed; the same seed always yields the same lake.
    pub seed: u64,
    /// Probability that a painting depicts Madonna and Child.
    pub madonna_probability: f64,
}

impl Default for ArtworkConfig {
    fn default() -> Self {
        ArtworkConfig {
            num_paintings: 150,
            seed: 42,
            madonna_probability: 0.25,
        }
    }
}

impl ArtworkConfig {
    /// A small configuration for fast unit tests.
    pub fn small() -> Self {
        ArtworkConfig {
            num_paintings: 40,
            seed: 7,
            madonna_probability: 0.3,
        }
    }

    /// The paper-scale configuration (7912 paintings, matching the
    /// `num_rows=7912` shown in the Figure 3 prompt).
    pub fn paper_scale() -> Self {
        ArtworkConfig {
            num_paintings: 7912,
            seed: 42,
            madonna_probability: 0.25,
        }
    }
}

/// Ground-truth record for one generated painting.
#[derive(Debug, Clone, PartialEq)]
pub struct PaintingRecord {
    /// Painting title.
    pub title: String,
    /// Artist name.
    pub artist: String,
    /// Inception as stored in the metadata table (string, varied formats).
    pub inception: String,
    /// Inception year (ground truth).
    pub year: i32,
    /// Century (1-based) derived from the year.
    pub century: i32,
    /// Art movement.
    pub movement: String,
    /// Genre.
    pub genre: String,
    /// Image path / join key.
    pub img_path: String,
    /// Depicted entities with counts (ground truth behind VisualQA).
    pub objects: BTreeMap<String, u32>,
    /// Whether Madonna and Child are depicted.
    pub madonna_and_child: bool,
}

impl PaintingRecord {
    /// Number of depicted instances of an entity (0 if absent).
    pub fn count_of(&self, entity: &str) -> u32 {
        self.objects.get(entity).copied().unwrap_or(0)
    }
}

/// The generated artwork dataset: the data lake plus the ground truth.
#[derive(Debug, Clone)]
pub struct ArtworkData {
    /// The multi-modal data lake registered for CAESURA.
    pub lake: DataLake,
    /// Ground-truth records, in the same order as the metadata table rows.
    pub records: Vec<PaintingRecord>,
}

/// Generate the artwork lake.
pub fn generate_artwork(config: &ArtworkConfig) -> ArtworkData {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut records = Vec::with_capacity(config.num_paintings);

    for i in 0..config.num_paintings {
        let year: i32 = rng.gen_range(1300..=1950);
        let century = DateValue::from_year(year).century();
        let inception = render_inception(&mut rng, year);
        let subject = names::TITLE_SUBJECTS[rng.gen_range(0..names::TITLE_SUBJECTS.len())];
        let suffix = names::TITLE_SUFFIXES[rng.gen_range(0..names::TITLE_SUFFIXES.len())];
        let title = format!("{subject} {suffix} No. {}", i + 1);
        let artist = names::ARTISTS[rng.gen_range(0..names::ARTISTS.len())].to_string();
        let movement = movement_for_year(year, &mut rng);
        let img_path = format!("img/{}.png", i + 1);

        let madonna_and_child = rng.gen_bool(config.madonna_probability);
        let mut objects = BTreeMap::new();
        if madonna_and_child {
            objects.insert("madonna".to_string(), 1);
            objects.insert("child".to_string(), 1 + rng.gen_range(0..2u32));
        }
        // A few additional depicted objects.
        let extra_objects = rng.gen_range(1..4usize);
        for _ in 0..extra_objects {
            let object =
                names::DEPICTABLE_OBJECTS[rng.gen_range(0..names::DEPICTABLE_OBJECTS.len())];
            let count = rng.gen_range(1..=5u32);
            objects.entry(object.to_string()).or_insert(count);
        }
        let genre = if madonna_and_child {
            "religious art".to_string()
        } else {
            names::GENRES[rng.gen_range(0..names::GENRES.len())].to_string()
        };

        records.push(PaintingRecord {
            title,
            artist,
            inception,
            year,
            century,
            movement,
            genre,
            img_path,
            objects,
            madonna_and_child,
        });
    }

    ArtworkData {
        lake: build_lake(&records),
        records,
    }
}

fn render_inception(rng: &mut StdRng, year: i32) -> String {
    match rng.gen_range(0..4) {
        0 => format!(
            "{year:04}-{:02}-{:02}",
            rng.gen_range(1..=12),
            rng.gen_range(1..=28)
        ),
        1 => format!("{year:04}"),
        2 => format!("c. {year:04}"),
        _ => format!("{year:04}-{:02}", rng.gen_range(1..=12)),
    }
}

fn movement_for_year(year: i32, rng: &mut StdRng) -> String {
    // Movements roughly track time; add jitter of ±1 slot.
    let slot = ((year - 1300) as usize * names::MOVEMENTS.len()) / 651;
    let jitter: i64 = rng.gen_range(-1..=1);
    let index = (slot as i64 + jitter).clamp(0, names::MOVEMENTS.len() as i64 - 1) as usize;
    names::MOVEMENTS[index].to_string()
}

fn build_lake(records: &[PaintingRecord]) -> DataLake {
    let mut lake = DataLake::new("artwork");

    let metadata_schema = Schema::from_pairs(&[
        ("title", DataType::Str),
        ("artist", DataType::Str),
        ("inception", DataType::Str),
        ("movement", DataType::Str),
        ("genre", DataType::Str),
        ("img_path", DataType::Str),
    ]);
    let mut metadata = TableBuilder::new("paintings_metadata", metadata_schema);
    let images_schema =
        Schema::from_pairs(&[("img_path", DataType::Str), ("image", DataType::Image)]);
    let mut images = TableBuilder::new("painting_images", images_schema);

    for record in records {
        metadata
            .push_row(vec![
                Value::str(&record.title),
                Value::str(&record.artist),
                Value::str(&record.inception),
                Value::str(&record.movement),
                Value::str(&record.genre),
                Value::str(&record.img_path),
            ])
            .expect("metadata row matches schema");
        images
            .push_row(vec![
                Value::str(&record.img_path),
                Value::image(&record.img_path),
            ])
            .expect("image row matches schema");

        let mut image = ImageObject::new(&record.img_path)
            .with_attribute("style", record.movement.to_lowercase())
            .with_attribute(
                "dominant color",
                names::COLORS[(record.year as usize) % names::COLORS.len()],
            );
        for (object, count) in &record.objects {
            image = image.with_object(object.clone(), *count);
        }
        lake.images_mut().insert(image);
    }

    lake.add_table(
        metadata.build(),
        "Metadata about the paintings exhibited in the museum: title, artist, inception date, \
         movement, genre and the path of the image of each painting",
    );
    lake.add_table(
        images.build(),
        "The images of the artworks; one picture per painting, addressed by img_path",
    );
    lake.add_foreign_key(ForeignKey::new(
        "paintings_metadata",
        "img_path",
        "painting_images",
        "img_path",
    ));
    lake
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesura_modal::image::EntityKeys;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = generate_artwork(&ArtworkConfig::small());
        let b = generate_artwork(&ArtworkConfig::small());
        assert_eq!(a.records, b.records);
        assert_eq!(
            a.lake
                .catalog()
                .table("paintings_metadata")
                .unwrap()
                .to_rows(),
            b.lake
                .catalog()
                .table("paintings_metadata")
                .unwrap()
                .to_rows()
        );
    }

    #[test]
    fn lake_contains_both_sources_with_matching_cardinalities() {
        let config = ArtworkConfig::small();
        let data = generate_artwork(&config);
        let metadata = data.lake.catalog().table("paintings_metadata").unwrap();
        let images = data.lake.catalog().table("painting_images").unwrap();
        assert_eq!(metadata.num_rows(), config.num_paintings);
        assert_eq!(images.num_rows(), config.num_paintings);
        assert_eq!(data.lake.images().len(), config.num_paintings);
        assert_eq!(data.records.len(), config.num_paintings);
    }

    #[test]
    fn image_annotations_match_the_ground_truth_records() {
        let data = generate_artwork(&ArtworkConfig::small());
        for record in &data.records {
            let image = data.lake.images().get(&record.img_path).unwrap();
            assert_eq!(
                image.depicts_keys(&EntityKeys::of("madonna and child")),
                record.madonna_and_child,
                "annotation mismatch for {}",
                record.img_path
            );
            for (object, count) in &record.objects {
                assert_eq!(image.count_of_keys(&EntityKeys::of(object)), *count);
            }
        }
    }

    #[test]
    fn inception_strings_contain_the_ground_truth_year() {
        let data = generate_artwork(&ArtworkConfig::small());
        for record in &data.records {
            assert!(
                record.inception.contains(&format!("{:04}", record.year)),
                "inception '{}' does not contain year {}",
                record.inception,
                record.year
            );
            assert_eq!(DateValue::from_year(record.year).century(), record.century);
        }
    }

    #[test]
    fn madonna_probability_shapes_the_corpus() {
        let config = ArtworkConfig {
            num_paintings: 400,
            seed: 3,
            madonna_probability: 0.25,
        };
        let data = generate_artwork(&config);
        let madonna = data.records.iter().filter(|r| r.madonna_and_child).count();
        let rate = madonna as f64 / 400.0;
        assert!((rate - 0.25).abs() < 0.08, "observed rate {rate}");
    }

    #[test]
    fn foreign_key_between_metadata_and_images_is_declared() {
        let data = generate_artwork(&ArtworkConfig::small());
        let fks = data.lake.catalog().foreign_keys_for("paintings_metadata");
        assert_eq!(fks.len(), 1);
        assert_eq!(fks[0].to_table, "painting_images");
    }

    #[test]
    fn paper_scale_config_matches_figure3_cardinality() {
        assert_eq!(ArtworkConfig::paper_scale().num_paintings, 7912);
    }
}
