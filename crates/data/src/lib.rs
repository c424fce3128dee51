//! # caesura-data
//!
//! Synthetic multi-modal data lakes for the CAESURA reproduction.
//!
//! The paper evaluates on two hand-built datasets: an **artwork** lake
//! (painting metadata table + image corpus, derived from Wikidata) and an
//! extended **rotowire** lake (basketball game reports + team/player tables).
//! Neither corpus is redistributable, so this crate generates seeded synthetic
//! equivalents with the same schemas, join keys, and — crucially — recoverable
//! ground truth, which the evaluation crate uses to grade plans.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod artwork;
pub mod fieldwork;
pub mod lake;
pub mod names;
pub mod rotowire;

pub use artwork::{generate_artwork, ArtworkConfig, ArtworkData, PaintingRecord};
pub use fieldwork::{
    generate_fieldwork, ExpeditionLog, FieldworkConfig, FieldworkData, RegionRecord, StationRecord,
};
pub use lake::DataLake;
pub use rotowire::{
    generate_rotowire, GameRecord, PlayerLine, PlayerRecord, RotowireConfig, RotowireData,
    TeamRecord,
};
