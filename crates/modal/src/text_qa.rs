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
            let stat = stat.trim();
            if stat.is_empty() {
                return unanswerable("could not identify the statistic of the question");
            }
            // Strip the trailing verb ("score", "grab", "have", ...).
            let words: Vec<&str> = tail.split_whitespace().collect();
            if words.len() < 2 {
                return unanswerable("could not identify the subject of the question");
            }
            let subject = words[..words.len() - 1].join(" ");
            return Ok(TextQuestion::HowMany {
                stat: stat.to_string(),
                subject,
            });
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

    unanswerable("the question does not match any supported text question pattern")
}

/// The simulated TextQA reader.
#[derive(Debug, Clone, Default)]
pub struct TextQaModel;

impl TextQaModel {
    /// The reader.
    pub fn new() -> Self {
        TextQaModel
    }

    /// Answer an instantiated question against a report document.
    ///
    /// Returns `Value::Null` when the document simply does not mention the
    /// subject (the reader cannot know the answer), and an error only when the
    /// question itself cannot be understood.
    pub fn answer(&self, document: &str, question: &str) -> ModalResult<Value> {
        let parsed = parse_text_question(question)?;
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
                answer.map_or(Value::Null, Value::Int)
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
                }
                match won {
                    Some(won) => Value::str(if won == win { "yes" } else { "no" }),
                    None => Value::Null,
                }
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

    /// Answers depend only on the document text, so the identity versions
    /// only the reading rules.
    fn identity(&self) -> String {
        "sim:text_qa:v3".to_string()
    }
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

    /// "How many  did Heat score?" names no statistic, and an empty one
    /// matches everywhere: the reader must refuse the question instead of
    /// searching forever. The question comes from the model's mapping
    /// arguments, so it is outside input; it runs on a thread here so that a
    /// regression fails instead of hanging the suite.
    #[test]
    fn an_empty_statistic_is_unanswerable_not_a_hang() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(TextQaModel::new().answer(REPORT, "How many  did Heat score?"));
        });
        let answer = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("the reader must answer a question with an empty statistic");
        assert!(matches!(
            answer,
            Err(ModalError::UnanswerableQuestion { .. })
        ));
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
