//! Text documents: the substitute for the rotowire game reports.
//!
//! Reports are plain text; the simulated TextQA model works directly on the
//! string content (the documents flow through the relational engine inline as
//! `Value::Text`). This module adds light structure — sentence splitting and
//! number extraction — shared by the TextQA model and its tests.

/// A text document with a stable identifier.
#[derive(Debug, Clone, PartialEq)]
pub struct TextDocument {
    /// Document identifier (e.g. the `game_id` it belongs to).
    pub id: String,
    /// Full text content.
    pub content: String,
}

impl TextDocument {
    /// Create a document.
    pub fn new(id: impl Into<String>, content: impl Into<String>) -> Self {
        TextDocument {
            id: id.into(),
            content: content.into(),
        }
    }
}

/// Split text into sentences on `.`, `!`, and `?` boundaries, trimming
/// whitespace and dropping empties.
pub fn split_sentences(text: &str) -> Vec<&str> {
    text.split_inclusive(['.', '!', '?'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// Extract every integer appearing in a piece of text, in order.
pub fn extract_numbers(text: &str) -> Vec<i64> {
    let mut numbers = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_digit() {
            let start = i;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
            let run: String = chars[start..i].iter().collect();
            if let Ok(n) = run.parse::<i64>() {
                numbers.push(n);
            }
        } else {
            i += 1;
        }
    }
    numbers
}

/// Find the first number that appears immediately before a keyword
/// (e.g. `extract_number_before("scored 31 points", "points") == Some(31)`).
/// An empty keyword names nothing, so it finds nothing.
pub fn extract_number_before(text: &str, keyword: &str) -> Option<i64> {
    if keyword.is_empty() {
        return None;
    }
    let lower = text.to_lowercase();
    let keyword = keyword.to_lowercase();
    let mut best: Option<i64> = None;
    let mut search_from = 0;
    while let Some(pos) = lower[search_from..].find(&keyword) {
        let abs = search_from + pos;
        let prefix = &lower[..abs];
        // Scan the prefix backwards for the closest number.
        let numbers = extract_numbers(prefix);
        if let Some(last) = numbers.last() {
            best = Some(*last);
            break;
        }
        search_from = abs + keyword.len();
        if search_from >= lower.len() {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentences_are_split_on_terminators() {
        let text =
            "The Spurs defeated the Heat 110-102. Tim Duncan scored 24 points! A great game?";
        let sentences = split_sentences(text);
        assert_eq!(sentences.len(), 3);
        assert!(sentences[0].starts_with("The Spurs"));
        assert!(sentences[1].contains("Duncan"));
    }

    #[test]
    fn numbers_are_extracted_in_order() {
        assert_eq!(extract_numbers("110-102 and 24 points"), vec![110, 102, 24]);
        assert_eq!(extract_numbers("no numbers"), Vec::<i64>::new());
    }

    #[test]
    fn number_before_keyword() {
        assert_eq!(
            extract_number_before("Tim Duncan scored 24 points and 9 rebounds", "points"),
            Some(24)
        );
        assert_eq!(
            extract_number_before("Tim Duncan scored 24 points and 9 rebounds", "rebounds"),
            Some(9)
        );
        assert_eq!(extract_number_before("no points here", "points"), None);
    }

    /// An empty keyword matches at every offset, so the search must stop at
    /// once instead of spinning; it runs on a thread here so that a
    /// regression fails instead of hanging the suite.
    #[test]
    fn an_empty_keyword_finds_nothing() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send([
                extract_number_before("no numbers before it", ""),
                extract_number_before("", ""),
            ]);
        });
        let found = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("extract_number_before must return for an empty keyword");
        assert_eq!(found, [None, None]);
    }

    #[test]
    fn document_construction() {
        let doc = TextDocument::new("game_1", "The Heat won.");
        assert_eq!(doc.id, "game_1");
        assert!(doc.content.contains("Heat"));
    }
}
