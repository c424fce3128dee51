//! The synthetic fieldwork data lake (the third, multi-step benchmark lake).
//!
//! The artwork and rotowire lakes are two-table/four-table shapes where every
//! query needs at most one perception hop from the main table. This lake is
//! deliberately wider so that benchmark plans must chain three or more steps
//! crossing modalities:
//!
//! * `stations(name, region, terrain, founded, img_path)` — research stations,
//! * `station_photos(img_path, image)` — one photo per station (IMAGE column),
//! * `expedition_logs(log_id, name, report)` — textual expedition logs, many
//!   per station (TEXT column),
//! * `regions(region, climate)` — region metadata reachable only via a second
//!   relational hop.
//!
//! Three foreign keys cross modalities: `stations.img_path ->
//! station_photos.img_path`, `expedition_logs.name -> stations.name` and
//! `stations.region -> regions.region`. A query like "average number of
//! samples stored by each climate" therefore needs two joins, a TextQA
//! extraction and an aggregation before it can produce an answer.
//!
//! The generator also supports **adversarial corruption** for the benchmark's
//! adversarial tier: `missing_images` keeps the image *cell* in
//! `station_photos` but removes the backing [`ImageObject`] from the store
//! (so VisualQA must surface the typed "not found in the image store"
//! execution error), and `dirty_reports` replaces report cells with an
//! integer (so TextQA must surface the typed per-row cell-type error instead
//! of silently coercing to NULL).

use crate::lake::DataLake;
use crate::names;
use caesura_engine::{DataType, DateValue, ForeignKey, Schema, TableBuilder, Value};
use caesura_modal::ImageObject;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Configuration for the fieldwork generator.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldworkConfig {
    /// Number of stations (max 16, the size of the name pool).
    pub num_stations: usize,
    /// Number of expedition logs per station.
    pub logs_per_station: usize,
    /// RNG seed; the same seed always yields the same lake.
    pub seed: u64,
    /// Number of stations (taken from the end) whose photo cell stays in the
    /// `station_photos` table but whose [`ImageObject`] is removed from the
    /// image store — the "missing image" adversarial corruption.
    pub missing_images: usize,
    /// Number of logs (taken from the end) whose report cell is replaced by
    /// an integer — the "dirty cell" adversarial corruption.
    pub dirty_reports: usize,
}

impl Default for FieldworkConfig {
    fn default() -> Self {
        FieldworkConfig {
            num_stations: 12,
            logs_per_station: 3,
            seed: 42,
            missing_images: 0,
            dirty_reports: 0,
        }
    }
}

impl FieldworkConfig {
    /// A small configuration for fast unit tests.
    pub fn small() -> Self {
        FieldworkConfig {
            num_stations: 8,
            logs_per_station: 2,
            seed: 7,
            missing_images: 0,
            dirty_reports: 0,
        }
    }

    /// The adversarial configuration used by the benchmark's corrupted-lake
    /// tier: same records as [`Default`], plus missing images and dirty
    /// report cells.
    pub fn adversarial() -> Self {
        FieldworkConfig {
            missing_images: 2,
            dirty_reports: 2,
            ..FieldworkConfig::default()
        }
    }
}

/// Ground-truth record for one station.
#[derive(Debug, Clone, PartialEq)]
pub struct StationRecord {
    /// Station name, primary key of the stations table.
    pub name: String,
    /// Survey region (foreign key into the regions table).
    pub region: String,
    /// Terrain class.
    pub terrain: String,
    /// Founding year as stored in the table (a date string).
    pub founded: String,
    /// Founding year (ground truth).
    pub year: i32,
    /// Century (1-based) derived from the year.
    pub century: i32,
    /// Photo path / join key into `station_photos`.
    pub img_path: String,
    /// Entities depicted in the station photo, with counts.
    pub objects: BTreeMap<String, u32>,
    /// Whether the adversarial lake dropped this photo from the image store.
    pub image_missing: bool,
}

impl StationRecord {
    /// Number of depicted instances of an entity (0 if absent).
    pub fn count_of(&self, entity: &str) -> u32 {
        self.objects.get(entity).copied().unwrap_or(0)
    }
}

/// Ground-truth record for one expedition log.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpeditionLog {
    /// Log identifier.
    pub log_id: i64,
    /// The station the log belongs to.
    pub station: String,
    /// Specimens collected on this expedition.
    pub specimens: i64,
    /// Instrument readings logged on this expedition.
    pub readings: i64,
    /// Samples stored on this expedition.
    pub samples: i64,
    /// Whether the adversarial lake replaced this report cell by an integer.
    pub dirty: bool,
}

impl ExpeditionLog {
    /// Render the textual report fed into the `expedition_logs` table. Each
    /// statistic lives in its own sentence, subject-first, so the simulated
    /// TextQA reader can recover it.
    pub fn render_report(&self, terrain: &str) -> String {
        format!(
            "{name} collected {specimens} specimens. {name} logged {readings} readings. \
             {name} stored {samples} samples. Conditions on the {terrain} stayed workable.",
            name = self.station,
            specimens = self.specimens,
            readings = self.readings,
            samples = self.samples,
        )
    }
}

/// Ground-truth record for one region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRecord {
    /// Region name, primary key of the regions table.
    pub region: String,
    /// Climate class.
    pub climate: String,
}

/// The generated fieldwork dataset: the data lake plus the ground truth.
#[derive(Debug, Clone)]
pub struct FieldworkData {
    /// The multi-modal data lake registered for CAESURA.
    pub lake: DataLake,
    /// Station ground truth, in table-row order.
    pub stations: Vec<StationRecord>,
    /// Expedition-log ground truth, in table-row order.
    pub logs: Vec<ExpeditionLog>,
    /// Region ground truth, in table-row order.
    pub regions: Vec<RegionRecord>,
}

impl FieldworkData {
    /// The station record with the given name.
    pub fn station(&self, name: &str) -> Option<&StationRecord> {
        self.stations.iter().find(|s| s.name == name)
    }

    /// All logs of one station, in row order.
    pub fn logs_of(&self, station: &str) -> Vec<&ExpeditionLog> {
        self.logs.iter().filter(|l| l.station == station).collect()
    }

    /// The climate of a region (empty string if unknown).
    pub fn climate_of(&self, region: &str) -> String {
        self.regions
            .iter()
            .find(|r| r.region == region)
            .map(|r| r.climate.clone())
            .unwrap_or_default()
    }
}

/// Generate the fieldwork lake.
pub fn generate_fieldwork(config: &FieldworkConfig) -> FieldworkData {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let num_stations = config.num_stations.clamp(2, names::STATION_NAMES.len());

    let regions: Vec<RegionRecord> = names::REGIONS
        .iter()
        .enumerate()
        .map(|(i, region)| RegionRecord {
            region: region.to_string(),
            climate: names::CLIMATES[i % names::CLIMATES.len()].to_string(),
        })
        .collect();

    let mut stations = Vec::with_capacity(num_stations);
    for i in 0..num_stations {
        let year: i32 = rng.gen_range(1850..=1979);
        let century = DateValue::from_year(year).century();
        // Round-robin over the object pool so every depictable entity shows
        // up in several photos even at small scale; counts stay random.
        let mut objects = BTreeMap::new();
        for offset in [0usize, 3, 6] {
            let object = names::FIELD_OBJECTS[(i + offset) % names::FIELD_OBJECTS.len()];
            objects.insert(object.to_string(), rng.gen_range(1..=5u32));
        }
        stations.push(StationRecord {
            name: names::STATION_NAMES[i].to_string(),
            region: names::REGIONS[i % names::REGIONS.len()].to_string(),
            terrain: names::TERRAINS[i % names::TERRAINS.len()].to_string(),
            founded: format!("{year:04}"),
            year,
            century,
            img_path: format!("photos/{}.png", i + 1),
            objects,
            image_missing: false,
        });
    }
    for station in stations.iter_mut().rev().take(config.missing_images) {
        station.image_missing = true;
    }

    let mut logs = Vec::with_capacity(num_stations * config.logs_per_station);
    let mut log_id = 0i64;
    for station in &stations {
        for _ in 0..config.logs_per_station {
            log_id += 1;
            logs.push(ExpeditionLog {
                log_id,
                station: station.name.clone(),
                specimens: rng.gen_range(2..=40),
                readings: rng.gen_range(1..=30),
                samples: rng.gen_range(1..=20),
                dirty: false,
            });
        }
    }
    for log in logs.iter_mut().rev().take(config.dirty_reports) {
        log.dirty = true;
    }

    let data = FieldworkData {
        lake: DataLake::new("fieldwork"),
        stations,
        logs,
        regions,
    };
    let lake = build_lake(&data);
    FieldworkData { lake, ..data }
}

fn build_lake(data: &FieldworkData) -> DataLake {
    let mut lake = DataLake::new("fieldwork");

    let stations_schema = Schema::from_pairs(&[
        ("name", DataType::Str),
        ("region", DataType::Str),
        ("terrain", DataType::Str),
        ("founded", DataType::Str),
        ("img_path", DataType::Str),
    ]);
    let mut stations = TableBuilder::new("stations", stations_schema);
    let photos_schema =
        Schema::from_pairs(&[("img_path", DataType::Str), ("image", DataType::Image)]);
    let mut photos = TableBuilder::new("station_photos", photos_schema);
    for station in &data.stations {
        stations
            .push_row(vec![
                Value::str(&station.name),
                Value::str(&station.region),
                Value::str(&station.terrain),
                Value::str(&station.founded),
                Value::str(&station.img_path),
            ])
            .expect("station row matches schema");
        photos
            .push_row(vec![
                Value::str(&station.img_path),
                Value::image(&station.img_path),
            ])
            .expect("photo row matches schema");
        if !station.image_missing {
            let mut image = ImageObject::new(&station.img_path)
                .with_attribute("terrain", station.terrain.to_lowercase());
            for (object, count) in &station.objects {
                image = image.with_object(object.clone(), *count);
            }
            lake.images_mut().insert(image);
        }
    }

    let logs_schema = Schema::from_pairs(&[
        ("log_id", DataType::Int),
        ("name", DataType::Str),
        ("report", DataType::Text),
    ]);
    let mut logs = TableBuilder::new("expedition_logs", logs_schema);
    for log in &data.logs {
        let report_cell = if log.dirty {
            // The dirty-cell corruption: an integer where a TEXT document
            // belongs. The builder keeps mistyped cells (the dynamic-typing
            // escape hatch) so the TextQA operator can surface its typed
            // per-row error at execution time.
            Value::Int(404)
        } else {
            let terrain = data
                .station(&log.station)
                .map(|s| s.terrain.to_lowercase())
                .unwrap_or_default();
            Value::text(log.render_report(&terrain))
        };
        logs.push_row(vec![
            Value::Int(log.log_id),
            Value::str(&log.station),
            report_cell,
        ])
        .expect("log row matches schema");
    }

    let regions_schema =
        Schema::from_pairs(&[("region", DataType::Str), ("climate", DataType::Str)]);
    let mut regions = TableBuilder::new("regions", regions_schema);
    for region in &data.regions {
        regions
            .push_row(vec![
                Value::str(&region.region),
                Value::str(&region.climate),
            ])
            .expect("region row matches schema");
    }

    lake.add_table(
        stations.build(),
        "General information about every research station: name, survey region, terrain class, \
         founding date and the path of the station photo",
    );
    lake.add_table(
        photos.build(),
        "The photos of the research stations; one picture per station, addressed by img_path",
    );
    lake.add_table(
        logs.build(),
        "Textual expedition logs of the research stations, several per station, containing the \
         number of specimens collected, readings logged and samples stored on each expedition",
    );
    lake.add_table(
        regions.build(),
        "Metadata about every survey region: region name and climate class",
    );
    lake.add_foreign_key(ForeignKey::new(
        "stations",
        "img_path",
        "station_photos",
        "img_path",
    ));
    lake.add_foreign_key(ForeignKey::new(
        "expedition_logs",
        "name",
        "stations",
        "name",
    ));
    lake.add_foreign_key(ForeignKey::new("stations", "region", "regions", "region"));
    lake
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesura_modal::image::EntityKeys;
    use caesura_modal::TextQaModel;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_fieldwork(&FieldworkConfig::small());
        let b = generate_fieldwork(&FieldworkConfig::small());
        assert_eq!(a.stations, b.stations);
        assert_eq!(a.logs, b.logs);
        assert_eq!(a.regions, b.regions);
    }

    #[test]
    fn lake_contains_all_four_sources() {
        let config = FieldworkConfig::small();
        let data = generate_fieldwork(&config);
        let catalog = data.lake.catalog();
        assert_eq!(
            catalog.table("stations").unwrap().num_rows(),
            config.num_stations
        );
        assert_eq!(
            catalog.table("station_photos").unwrap().num_rows(),
            config.num_stations
        );
        assert_eq!(
            catalog.table("expedition_logs").unwrap().num_rows(),
            config.num_stations * config.logs_per_station
        );
        assert_eq!(
            catalog.table("regions").unwrap().num_rows(),
            names::REGIONS.len()
        );
        assert_eq!(data.lake.images().len(), config.num_stations);
    }

    #[test]
    fn foreign_keys_cross_all_three_modalities() {
        let data = generate_fieldwork(&FieldworkConfig::small());
        let summary = data.lake.catalog().prompt_summary();
        assert!(summary.contains("stations.img_path -> station_photos.img_path"));
        assert!(summary.contains("expedition_logs.name -> stations.name"));
        assert!(summary.contains("stations.region -> regions.region"));
    }

    #[test]
    fn text_qa_can_recover_the_ground_truth_from_generated_logs() {
        let data = generate_fieldwork(&FieldworkConfig::small());
        let model = TextQaModel::new();
        for log in &data.logs {
            let terrain = data.station(&log.station).unwrap().terrain.to_lowercase();
            let report = log.render_report(&terrain);
            for (stat, verb, expected) in [
                ("specimens", "collect", log.specimens),
                ("readings", "log", log.readings),
                ("samples", "store", log.samples),
            ] {
                let question = format!("How many {stat} did {} {verb}?", log.station);
                assert_eq!(
                    model.answer(&report, &question).unwrap(),
                    Value::Int(expected),
                    "wrong {stat} extraction for log {}",
                    log.log_id
                );
            }
        }
    }

    #[test]
    fn image_annotations_match_the_ground_truth_records() {
        let data = generate_fieldwork(&FieldworkConfig::small());
        for station in &data.stations {
            let image = data.lake.images().get(&station.img_path).unwrap();
            for (object, count) in &station.objects {
                assert_eq!(image.count_of_keys(&EntityKeys::of(object)), *count);
            }
        }
    }

    #[test]
    fn every_field_object_is_depicted_somewhere_at_default_scale() {
        let data = generate_fieldwork(&FieldworkConfig::default());
        for object in names::FIELD_OBJECTS {
            assert!(
                data.stations.iter().any(|s| s.count_of(object) > 0),
                "object {object} never depicted; benchmark queries about it would be degenerate"
            );
        }
    }

    #[test]
    fn founded_strings_contain_the_ground_truth_year() {
        let data = generate_fieldwork(&FieldworkConfig::small());
        for station in &data.stations {
            assert!(station.founded.contains(&format!("{:04}", station.year)));
            assert_eq!(
                DateValue::from_year(station.year).century(),
                station.century
            );
        }
    }

    #[test]
    fn adversarial_config_corrupts_exactly_the_advertised_rows() {
        let config = FieldworkConfig::adversarial();
        let data = generate_fieldwork(&config);

        let missing: Vec<&StationRecord> =
            data.stations.iter().filter(|s| s.image_missing).collect();
        assert_eq!(missing.len(), config.missing_images);
        for station in &missing {
            // The cell survives in the photos table but the store has no
            // backing object: exactly the shape that must surface as the
            // typed "not found in the image store" execution error.
            assert!(data.lake.images().get(&station.img_path).is_none());
        }
        assert_eq!(
            data.lake.images().len(),
            config.num_stations - config.missing_images
        );

        let dirty: Vec<&ExpeditionLog> = data.logs.iter().filter(|l| l.dirty).collect();
        assert_eq!(dirty.len(), config.dirty_reports);

        // The clean ground truth is identical to the default config: the
        // corruption only changes the lake, never the oracle.
        let clean = generate_fieldwork(&FieldworkConfig::default());
        assert_eq!(clean.stations.len(), data.stations.len());
        for (a, b) in clean.logs.iter().zip(&data.logs) {
            assert_eq!(
                (a.specimens, a.readings, a.samples),
                (b.specimens, b.readings, b.samples)
            );
        }
    }

    #[test]
    fn clean_config_has_no_corruption() {
        let data = generate_fieldwork(&FieldworkConfig::default());
        assert!(data.stations.iter().all(|s| !s.image_missing));
        assert!(data.logs.iter().all(|l| !l.dirty));
        assert_eq!(data.lake.images().len(), data.stations.len());
    }
}
