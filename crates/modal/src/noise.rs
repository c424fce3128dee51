//! Deterministic noise injection for the simulated perception models.
//!
//! Real VisualQA / TextQA models (BLIP-2, BART) are not perfectly accurate.
//! To let experiments study the effect of extraction noise without giving up
//! reproducibility, the simulated models accept a [`NoiseModel`]: a stateless,
//! hash-based corruption source. Whether a particular (item, question) pair is
//! corrupted depends only on the configured seed and error rate, never on call
//! order, so repeated runs produce identical outputs.

/// A stateless, deterministic noise source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Probability in `[0, 1]` that any given answer is corrupted.
    pub error_rate: f64,
    /// Seed mixed into the per-item hash.
    pub seed: u64,
}

impl NoiseModel {
    /// A noiseless model (the default used in the paper-reproduction runs,
    /// which grade *planning* quality, not perception quality).
    pub fn none() -> Self {
        NoiseModel {
            error_rate: 0.0,
            seed: 0,
        }
    }

    /// A noise model with the given error rate and seed.
    pub fn with_rate(error_rate: f64, seed: u64) -> Self {
        NoiseModel {
            error_rate: error_rate.clamp(0.0, 1.0),
            seed,
        }
    }

    /// The key an answer is corrupted under, built only when this model can
    /// corrupt at all: a noiseless model never reads it.
    pub(crate) fn key(&self, build: impl FnOnce() -> String) -> String {
        if self.error_rate > 0.0 {
            build()
        } else {
            String::new()
        }
    }

    /// Whether the answer identified by `key` should be corrupted.
    pub fn should_corrupt(&self, key: &str) -> bool {
        if self.error_rate <= 0.0 {
            return false;
        }
        if self.error_rate >= 1.0 {
            return true;
        }
        let hash = self.hash(key);
        // Map the hash to [0, 1).
        let unit = (hash >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.error_rate
    }

    /// Perturb an integer count deterministically (±1, never below zero).
    pub fn perturb_count(&self, key: &str, count: i64) -> i64 {
        let hash = self.hash(&format!("{key}/delta"));
        if hash.is_multiple_of(2) {
            count + 1
        } else {
            (count - 1).max(0)
        }
    }

    fn hash(&self, key: &str) -> u64 {
        // FNV-1a, mixed with the seed; deliberately simple and dependency-free.
        let mut hash: u64 = 0xcbf29ce484222325 ^ self.seed.wrapping_mul(0x9e3779b97f4a7c15);
        for byte in key.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        hash
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_corrupts() {
        let noise = NoiseModel::none();
        assert!(!noise.should_corrupt("anything"));
    }

    #[test]
    fn full_rate_always_corrupts() {
        let noise = NoiseModel::with_rate(1.0, 42);
        assert!(noise.should_corrupt("a"));
        assert!(noise.should_corrupt("b"));
    }

    #[test]
    fn corruption_is_deterministic_per_key_and_seed() {
        let noise = NoiseModel::with_rate(0.5, 7);
        let first = noise.should_corrupt("img/1.png/How many swords?");
        let second = noise.should_corrupt("img/1.png/How many swords?");
        assert_eq!(first, second);
    }

    #[test]
    fn rate_roughly_matches_observed_frequency() {
        let noise = NoiseModel::with_rate(0.3, 99);
        let corrupted = (0..2000)
            .filter(|i| noise.should_corrupt(&format!("key-{i}")))
            .count();
        let rate = corrupted as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.06, "observed rate {rate}");
    }

    #[test]
    fn perturb_count_never_goes_negative() {
        let noise = NoiseModel::with_rate(1.0, 1);
        for i in 0..20 {
            assert!(noise.perturb_count(&format!("k{i}"), 0) >= 0);
        }
    }

    #[test]
    fn rate_is_clamped() {
        assert_eq!(NoiseModel::with_rate(7.0, 0).error_rate, 1.0);
        assert_eq!(NoiseModel::with_rate(-1.0, 0).error_rate, 0.0);
    }
}
