//! Simulated TextQA model (the BART substitute).
//!
//! The paper's TextQA operator takes a *question template* such as
//! `"How many points did <name> score?"`. The template is instantiated per row
//! using values from the input table (producing e.g. "How many points did Heat
//! score?") and answered against the report document of that row. This module
//! implements the reader; template instantiation happens in the operator layer.

use crate::batch::{PerceptionBackend, PerceptionInput, PerceptionRequest};
use crate::document::{extract_number_before, split_sentences};
use crate::error::{ModalError, ModalResult};
use crate::noise::NoiseModel;
use caesura_engine::Value;

/// The kind of question a TextQA model was asked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextQuestion {
    /// "How many `<stat>` did `<subject>` `<verb>`?" → integer extraction.
    HowMany {
        /// The statistic keyword (points, rebounds, assists, ...).
        stat: String,
        /// The subject (team or player name).
        subject: String,
    },
    /// "Did `<subject>` win?" / "Did `<subject>` lose?" → yes/no.
    DidOutcome {
        /// The subject (team name).
        subject: String,
        /// `true` for "win", `false` for "lose".
        win: bool,
    },
    /// "Who won the game?" / "Who lost the game?" → a name.
    WhoOutcome {
        /// `true` for winner, `false` for loser.
        win: bool,
    },
}

/// Parse a (fully instantiated) natural-language question about a report.
pub fn parse_text_question(question: &str) -> ModalResult<TextQuestion> {
    let q = question.trim().trim_end_matches('?').to_lowercase();
    let unanswerable = |reason: &str| {
        Err(ModalError::UnanswerableQuestion {
            model: "TextQA".into(),
            question: question.to_string(),
            reason: reason.to_string(),
        })
    };

    if q.is_empty() {
        return unanswerable("the question is empty");
    }

    // "how many points did heat score" / "how many rebounds did lebron james grab"
    if let Some(rest) = q.strip_prefix("how many ") {
        if let Some((stat, tail)) = rest.split_once(" did ") {
            // Strip the trailing verb ("score", "grab", "have", ...).
            let words: Vec<&str> = tail.split_whitespace().collect();
            if words.len() < 2 {
                return unanswerable("could not identify the subject of the question");
            }
            let subject = words[..words.len() - 1].join(" ");
            return Ok(TextQuestion::HowMany {
                stat: stat.trim().to_string(),
                subject,
            });
        }
        // "how many points were scored by heat"
        if let Some((stat, tail)) = rest.split_once(" were ") {
            if let Some(subject) = tail.split(" by ").nth(1) {
                return Ok(TextQuestion::HowMany {
                    stat: stat.trim().to_string(),
                    subject: subject.trim().to_string(),
                });
            }
        }
        return unanswerable("counting questions must follow 'How many <stat> did <name> <verb>?'");
    }

    // "did heat win" / "did heat lose" / "did heat win the game"
    if let Some(rest) = q.strip_prefix("did ") {
        let rest = rest
            .trim_end_matches(" the game")
            .trim_end_matches(" this game");
        if let Some(subject) = rest.strip_suffix(" win") {
            return Ok(TextQuestion::DidOutcome {
                subject: subject.trim().to_string(),
                win: true,
            });
        }
        if let Some(subject) = rest.strip_suffix(" lose") {
            return Ok(TextQuestion::DidOutcome {
                subject: subject.trim().to_string(),
                win: false,
            });
        }
        return unanswerable("only win/lose outcome questions are supported for 'Did ...?'");
    }

    if q.starts_with("who won") {
        return Ok(TextQuestion::WhoOutcome { win: true });
    }
    if q.starts_with("who lost") {
        return Ok(TextQuestion::WhoOutcome { win: false });
    }

    unanswerable("the question does not match any supported text question pattern")
}

/// The simulated TextQA reader.
#[derive(Debug, Clone, Default)]
pub struct TextQaModel {
    noise: NoiseModel,
}

impl TextQaModel {
    /// A noiseless reader.
    pub fn new() -> Self {
        TextQaModel {
            noise: NoiseModel::none(),
        }
    }

    /// A reader that corrupts a fraction of its answers (deterministically).
    pub fn with_noise(noise: NoiseModel) -> Self {
        TextQaModel { noise }
    }

    /// Answer an instantiated question against a report document.
    ///
    /// Returns `Value::Null` when the document simply does not mention the
    /// subject (the reader cannot know the answer), and an error only when the
    /// question itself cannot be understood.
    pub fn answer(&self, document: &str, question: &str) -> ModalResult<Value> {
        let parsed = parse_text_question(question)?;
        let noise_key = self.noise.key(|| {
            let prefix: String = document.chars().take(32).collect();
            format!("{prefix}\u{1}{question}")
        });
        let doc_lower = document.to_lowercase();
        Ok(match parsed {
            TextQuestion::HowMany { stat, subject } => {
                let subject_lower = subject.to_lowercase();
                // Find sentences mentioning the subject and the statistic, and
                // read the number that follows the *subject* (so that a
                // sentence covering both teams attributes the right figure).
                let mut answer: Option<i64> = None;
                for sentence in split_sentences(&doc_lower) {
                    if sentence.contains(&subject_lower) && sentence.contains(&stat) {
                        let subject_pos = sentence.find(&subject_lower).unwrap_or(0);
                        let after_subject = &sentence[subject_pos..];
                        if let Some(n) = extract_number_before(after_subject, &stat)
                            .or_else(|| extract_number_before(sentence, &stat))
                        {
                            answer = Some(n);
                            break;
                        }
                    }
                }
                match answer {
                    Some(mut n) => {
                        if self.noise.should_corrupt(&noise_key) {
                            n = self.noise.perturb_count(&noise_key, n);
                        }
                        Value::Int(n)
                    }
                    None => Value::Null,
                }
            }
            TextQuestion::DidOutcome { subject, win } => {
                let subject_lower = subject.to_lowercase();
                if !doc_lower.contains(&subject_lower) {
                    return Ok(Value::Null);
                }
                // Reports contain a sentence of the form
                // "The <winner> defeated the <loser> <a>-<b>." — the subject
                // won if it appears before "defeated" in that sentence.
                let mut won: Option<bool> = None;
                for sentence in split_sentences(&doc_lower) {
                    if let Some(pos) = sentence.find("defeated") {
                        let before = &sentence[..pos];
                        let after = &sentence[pos..];
                        if before.contains(&subject_lower) {
                            won = Some(true);
                            break;
                        }
                        if after.contains(&subject_lower) {
                            won = Some(false);
                            break;
                        }
                    }
                    // Alternative phrasing: "<winner> beat <loser>".
                    if let Some(pos) = sentence.find(" beat ") {
                        let before = &sentence[..pos];
                        let after = &sentence[pos..];
                        if before.contains(&subject_lower) {
                            won = Some(true);
                            break;
                        }
                        if after.contains(&subject_lower) {
                            won = Some(false);
                            break;
                        }
                    }
                }
                match won {
                    Some(mut outcome) => {
                        if !win {
                            outcome = !outcome;
                        }
                        if self.noise.should_corrupt(&noise_key) {
                            outcome = !outcome;
                        }
                        Value::str(if outcome { "yes" } else { "no" })
                    }
                    None => Value::Null,
                }
            }
            TextQuestion::WhoOutcome { win } => {
                // "The <winner> defeated the <loser> ..."
                let mut result = Value::Null;
                for sentence in split_sentences(document) {
                    if let Some(pos) = find_ascii_ignore_case(sentence, "defeated") {
                        let (before, after) = sentence.split_at(pos);
                        let name = if win {
                            clean_team_phrase(before)
                        } else {
                            clean_team_phrase(&after["defeated".len()..])
                        };
                        if !name.is_empty() {
                            result = Value::str(name);
                        }
                        break;
                    }
                }
                result
            }
        })
    }
}

impl PerceptionBackend for TextQaModel {
    /// Answer a batch request-by-request; the simulated reader has no
    /// per-call overhead, so batching only changes the dispatch granularity.
    fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
        requests
            .iter()
            .map(|request| match &request.input {
                PerceptionInput::Document(document) => self.answer(document, &request.question),
                PerceptionInput::Image(_) => Err(ModalError::InvalidArguments {
                    operator: "Text Question Answering".to_string(),
                    message: "the TextQA model reads TEXT documents, not images".to_string(),
                }),
            })
            .collect()
    }

    /// Answers depend only on the document text and the noise configuration,
    /// so the identity versions exactly those.
    fn identity(&self) -> String {
        format!(
            "sim:text_qa:v2:noise={}@{}",
            self.noise.error_rate, self.noise.seed
        )
    }
}

/// Byte offset of the first occurrence of the ASCII `needle` in `haystack`,
/// ignoring ASCII case. Offsets into a lowercased copy would not do:
/// lowercasing changes the byte length of characters such as `İ` and `ẞ`.
fn find_ascii_ignore_case(haystack: &str, needle: &str) -> Option<usize> {
    let needle = needle.as_bytes();
    let windows = haystack.as_bytes().windows(needle.len());
    windows
        .into_iter()
        .position(|window| window.eq_ignore_ascii_case(needle))
}

/// Strip articles, scores, and punctuation from a phrase like
/// "The Miami Heat " or " the San Antonio Spurs 110-102." to get a team name.
fn clean_team_phrase(phrase: &str) -> String {
    let words: Vec<&str> = phrase
        .split_whitespace()
        .filter(|w| {
            let lower = w.to_lowercase();
            lower != "the"
                && !w
                    .chars()
                    .next()
                    .map(|c| c.is_ascii_digit())
                    .unwrap_or(false)
        })
        .collect();
    words
        .join(" ")
        .trim_end_matches(['.', ',', '!'])
        .trim()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "The San Antonio Spurs defeated the Miami Heat 110-102. \
        The Spurs scored 110 points in total while the Heat scored 102 points. \
        Tim Duncan scored 24 points, grabbed 11 rebounds and dished 3 assists. \
        LeBron James scored 31 points, grabbed 8 rebounds and dished 7 assists.";

    #[test]
    fn how_many_points_did_team_score() {
        let model = TextQaModel::new();
        assert_eq!(
            model
                .answer(REPORT, "How many points did Heat score?")
                .unwrap(),
            Value::Int(102)
        );
        assert_eq!(
            model
                .answer(REPORT, "How many points did Spurs score?")
                .unwrap(),
            Value::Int(110)
        );
    }

    #[test]
    fn how_many_stats_did_player_record() {
        let model = TextQaModel::new();
        assert_eq!(
            model
                .answer(REPORT, "How many points did LeBron James score?")
                .unwrap(),
            Value::Int(31)
        );
        assert_eq!(
            model
                .answer(REPORT, "How many rebounds did Tim Duncan grab?")
                .unwrap(),
            Value::Int(11)
        );
        assert_eq!(
            model
                .answer(REPORT, "How many assists did LeBron James dish?")
                .unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn unknown_subjects_yield_null_not_errors() {
        let model = TextQaModel::new();
        assert_eq!(
            model
                .answer(REPORT, "How many points did Bulls score?")
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn win_lose_questions() {
        let model = TextQaModel::new();
        assert_eq!(
            model.answer(REPORT, "Did Spurs win?").unwrap(),
            Value::str("yes")
        );
        assert_eq!(
            model.answer(REPORT, "Did Heat win?").unwrap(),
            Value::str("no")
        );
        assert_eq!(
            model.answer(REPORT, "Did Heat lose?").unwrap(),
            Value::str("yes")
        );
        assert_eq!(
            model.answer(REPORT, "Did Spurs lose the game?").unwrap(),
            Value::str("no")
        );
        assert_eq!(
            model.answer(REPORT, "Did Lakers win?").unwrap(),
            Value::Null
        );
    }

    #[test]
    fn who_won_extracts_the_team_name() {
        let model = TextQaModel::new();
        let winner = model.answer(REPORT, "Who won the game?").unwrap();
        assert_eq!(winner, Value::str("San Antonio Spurs"));
        let loser = model.answer(REPORT, "Who lost the game?").unwrap();
        assert!(loser.to_string().contains("Miami Heat"));
    }

    /// Lowercasing `İ` grows it by a byte and `ẞ` shrinks by one, so an
    /// offset found in the lowercased sentence cut the original mid-name, or
    /// mid-character.
    #[test]
    fn who_won_survives_names_whose_lowercase_has_another_length() {
        let model = TextQaModel::new();
        for (report, winner, loser) in [
            (
                "The İstanbul Kings defeated the Miami Heat 100-90.",
                "İstanbul Kings",
                "Miami Heat",
            ),
            ("ẞẞé defeated the Heat 100-90.", "ẞẞé", "Heat"),
            ("THE ÉTOILES DEFEATED THE HEAT 100-90.", "ÉTOILES", "HEAT"),
        ] {
            let won = model.answer(report, "Who won the game?").unwrap();
            assert_eq!(won, Value::str(winner), "{report}");
            let lost = model.answer(report, "Who lost the game?").unwrap();
            assert_eq!(lost, Value::str(loser), "{report}");
        }
    }

    #[test]
    fn unintelligible_questions_error_with_reason() {
        let model = TextQaModel::new();
        let err = model
            .answer(REPORT, "Summarize the report in one sentence")
            .unwrap_err();
        assert!(matches!(err, ModalError::UnanswerableQuestion { .. }));
        assert!(err.to_string().contains("TextQA"));
    }

    #[test]
    fn noise_perturbs_deterministically() {
        let noisy = TextQaModel::with_noise(NoiseModel::with_rate(1.0, 11));
        let a = noisy
            .answer(REPORT, "How many points did Heat score?")
            .unwrap();
        assert_ne!(a, Value::Int(102));
        let b = noisy
            .answer(REPORT, "How many points did Heat score?")
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn question_parser_handles_templates_after_instantiation() {
        assert_eq!(
            parse_text_question("How many points did Heat score?").unwrap(),
            TextQuestion::HowMany {
                stat: "points".into(),
                subject: "heat".into()
            }
        );
        assert_eq!(
            parse_text_question("Did Miami Heat lose?").unwrap(),
            TextQuestion::DidOutcome {
                subject: "miami heat".into(),
                win: false
            }
        );
        assert!(parse_text_question("What is the capital of France?").is_err());
    }
}
