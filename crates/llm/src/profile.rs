//! Model profiles: calibrated error behaviour of the simulated GPT-4 and
//! ChatGPT-3.5 backends.
//!
//! The paper reports (Table 1 / Table 2) that GPT-4 translates ~94% of queries
//! into correct logical plans while ChatGPT-3.5 only manages ~65%, with the
//! smaller model's dominant failure mode being *data misunderstanding* — it
//! "often tried to extract what is depicted in the image based on the title or
//! the genre column" (§4.3). The profiles below reproduce those failure modes
//! by deterministically injecting them into otherwise-correct plans. All
//! decisions are keyed by a hash of (seed, query, error kind), so a given run
//! seed always produces the same Table 1 / Table 2.

/// Which language model the simulated backend imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelProfile {
    /// The GPT-4-like profile: strong reasoning, rare argument slips.
    Gpt4,
    /// The ChatGPT-3.5-like profile: frequent data misunderstanding, missing
    /// steps, and impossible actions.
    ChatGpt35,
}

impl ModelProfile {
    /// Model name reported in traces and result tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelProfile::Gpt4 => "gpt-4-sim",
            ModelProfile::ChatGpt35 => "chatgpt-3.5-sim",
        }
    }

    /// Error rates of the profile.
    pub fn rates(&self) -> ErrorRates {
        match self {
            ModelProfile::Gpt4 => ErrorRates {
                data_misunderstanding: 0.04,
                missing_step: 0.0,
                impossible_action: 0.04,
                wrong_arguments: 0.07,
                wrong_tool: 0.0,
                recoverable_typo: 0.10,
            },
            ModelProfile::ChatGpt35 => ErrorRates {
                data_misunderstanding: 0.38,
                missing_step: 0.10,
                impossible_action: 0.12,
                wrong_arguments: 0.10,
                wrong_tool: 0.04,
                recoverable_typo: 0.05,
            },
        }
    }
}

/// Per-category error-injection probabilities of a profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRates {
    /// Probability of misunderstanding multi-modal data (using metadata columns
    /// instead of the images / reports) on a multi-modal query.
    pub data_misunderstanding: f64,
    /// Probability of dropping a required join step.
    pub missing_step: f64,
    /// Probability of referencing a non-existent column in the logical plan.
    pub impossible_action: f64,
    /// Probability of choosing wrong operator arguments in the mapping phase
    /// (persists across retries — an unrecoverable mistake).
    pub wrong_arguments: f64,
    /// Probability of choosing the wrong physical operator for a step.
    pub wrong_tool: f64,
    /// Probability of a *recoverable* argument typo: the first attempt fails,
    /// but after the error-handling prompt the model corrects itself (§3.2).
    pub recoverable_typo: f64,
}

/// Corruptions applied to a logical plan during the planning phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanCorruption {
    /// Replace multi-modal extraction steps by metadata-based lookups.
    DataMisunderstanding,
    /// Drop the first join step.
    MissingJoin,
    /// Reference a non-existent column in a selection / aggregation step.
    ImpossibleColumn,
}

/// Corruptions applied to an operator decision during the mapping phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingCorruption {
    /// Corrupt an argument (column name / question) — persists across retries.
    WrongArguments,
    /// Choose a plain SQL operator for a multi-modal step.
    WrongTool,
    /// Corrupt an argument, but only on the first attempt (fixed after the
    /// error-analysis prompt).
    RecoverableTypo,
}

/// Deterministic error-injection decisions for one model + run seed.
#[derive(Debug, Clone, Copy)]
pub struct ErrorInjector {
    profile: ModelProfile,
    seed: u64,
}

impl ErrorInjector {
    /// Create an injector.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        ErrorInjector { profile, seed }
    }

    /// Which plan-level corruptions apply to this query. At most one is
    /// returned, mirroring the paper's per-query error categorization.
    pub fn plan_corruption(&self, query: &str, multimodal: bool) -> Option<PlanCorruption> {
        let rates = self.profile.rates();
        if multimodal && self.roll(query, "data-misunderstanding") < rates.data_misunderstanding {
            return Some(PlanCorruption::DataMisunderstanding);
        }
        if self.roll(query, "missing-step") < rates.missing_step {
            return Some(PlanCorruption::MissingJoin);
        }
        if self.roll(query, "impossible-action") < rates.impossible_action {
            return Some(PlanCorruption::ImpossibleColumn);
        }
        None
    }

    /// Which mapping-level corruption applies to a step of this query.
    pub fn mapping_corruption(
        &self,
        query: &str,
        step_number: usize,
        multimodal_step: bool,
    ) -> Option<MappingCorruption> {
        let rates = self.profile.rates();
        // Only one step per query is eligible for mapping errors, chosen by hash,
        // so error counts stay per-query like in Table 2.
        let eligible_step = 1 + (self.hash(query, "eligible-step") % 4) as usize;
        if step_number != eligible_step {
            return None;
        }
        if multimodal_step && self.roll(query, "wrong-tool") < rates.wrong_tool {
            return Some(MappingCorruption::WrongTool);
        }
        if self.roll(query, "wrong-arguments") < rates.wrong_arguments {
            return Some(MappingCorruption::WrongArguments);
        }
        if self.roll(query, "recoverable-typo") < rates.recoverable_typo {
            return Some(MappingCorruption::RecoverableTypo);
        }
        None
    }

    /// A deterministic uniform draw in `[0, 1)` for a (query, tag) pair.
    fn roll(&self, query: &str, tag: &str) -> f64 {
        (self.hash(query, tag) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn hash(&self, query: &str, tag: &str) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325 ^ self.seed.wrapping_mul(0x9e3779b97f4a7c15);
        for byte in query.bytes().chain(tag.bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        // Final avalanche.
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xff51afd7ed558ccd);
        hash ^= hash >> 33;
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_names_and_ordered_error_rates() {
        assert_eq!(ModelProfile::Gpt4.name(), "gpt-4-sim");
        assert_eq!(ModelProfile::ChatGpt35.name(), "chatgpt-3.5-sim");
        let gpt4 = ModelProfile::Gpt4.rates();
        let gpt35 = ModelProfile::ChatGpt35.rates();
        assert!(gpt35.data_misunderstanding > gpt4.data_misunderstanding);
        assert!(gpt35.missing_step > gpt4.missing_step);
        assert!(gpt35.impossible_action > gpt4.impossible_action);
    }

    #[test]
    fn injection_decisions_are_deterministic() {
        let injector = ErrorInjector::new(ModelProfile::ChatGpt35, 42);
        let a = injector.plan_corruption("Plot the swords per century", true);
        let b = injector.plan_corruption("Plot the swords per century", true);
        assert_eq!(a, b);
        let a = injector.mapping_corruption("some query", 2, true);
        let b = injector.mapping_corruption("some query", 2, true);
        assert_eq!(a, b);
    }

    #[test]
    fn chatgpt35_misunderstands_multimodal_queries_much_more_often() {
        let weak = ErrorInjector::new(ModelProfile::ChatGpt35, 1);
        let strong = ErrorInjector::new(ModelProfile::Gpt4, 1);
        let queries: Vec<String> = (0..200)
            .map(|i| format!("Plot the number of objects depicted in painting set {i}"))
            .collect();
        let weak_errors = queries
            .iter()
            .filter(|q| {
                matches!(
                    weak.plan_corruption(q, true),
                    Some(PlanCorruption::DataMisunderstanding)
                )
            })
            .count();
        let strong_errors = queries
            .iter()
            .filter(|q| {
                matches!(
                    strong.plan_corruption(q, true),
                    Some(PlanCorruption::DataMisunderstanding)
                )
            })
            .count();
        assert!(
            weak_errors > strong_errors * 3,
            "{weak_errors} vs {strong_errors}"
        );
    }

    #[test]
    fn relational_queries_never_get_data_misunderstanding() {
        let injector = ErrorInjector::new(ModelProfile::ChatGpt35, 9);
        for i in 0..100 {
            let query = format!("How many rows are in table {i}?");
            assert_ne!(
                injector.plan_corruption(&query, false),
                Some(PlanCorruption::DataMisunderstanding)
            );
        }
    }

    #[test]
    fn mapping_corruption_only_hits_the_eligible_step() {
        let injector = ErrorInjector::new(ModelProfile::ChatGpt35, 3);
        let query = "Plot the maximum number of swords per century";
        let hits: Vec<usize> = (1..=6)
            .filter(|step| injector.mapping_corruption(query, *step, false).is_some())
            .collect();
        assert!(hits.len() <= 1);
    }
}
