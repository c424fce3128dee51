//! Chat-style conversations: the wire format between CAESURA and the LLM.
//!
//! Every phase of CAESURA builds a [`Conversation`] of system / human messages
//! (Figure 3 of the paper shows the planning and mapping conversations) and
//! receives a free-text completion back. Keeping this as plain text — rather
//! than passing structured data to the simulated model — preserves the
//! architecture of the original system: all information must flow through the
//! prompt, and all decisions must be parsed back out of text.

use std::fmt;

/// The author of a chat message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The system prompt (instructions, data descriptions, output format).
    System,
    /// The human/user turn (the request).
    Human,
    /// A previous model answer (used when feeding observations back).
    Assistant,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Role::System => "System",
            Role::Human => "Human",
            Role::Assistant => "Assistant",
        };
        f.write_str(name)
    }
}

/// A single chat message.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatMessage {
    /// Who authored the message.
    pub role: Role,
    /// The message text.
    pub content: String,
}

impl ChatMessage {
    /// A system message.
    pub fn system(content: impl Into<String>) -> Self {
        ChatMessage {
            role: Role::System,
            content: content.into(),
        }
    }

    /// A human message.
    pub fn human(content: impl Into<String>) -> Self {
        ChatMessage {
            role: Role::Human,
            content: content.into(),
        }
    }

    /// An assistant message.
    pub fn assistant(content: impl Into<String>) -> Self {
        ChatMessage {
            role: Role::Assistant,
            content: content.into(),
        }
    }
}

/// An ordered list of chat messages.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Conversation {
    messages: Vec<ChatMessage>,
}

impl Conversation {
    /// An empty conversation.
    pub fn new() -> Self {
        Conversation::default()
    }

    /// Append a message (builder style).
    pub fn with(mut self, message: ChatMessage) -> Self {
        self.messages.push(message);
        self
    }

    /// Append a message in place.
    pub fn push(&mut self, message: ChatMessage) {
        self.messages.push(message);
    }

    /// All messages in order.
    pub fn messages(&self) -> &[ChatMessage] {
        &self.messages
    }

    /// Concatenated content of all system messages.
    pub fn system_text(&self) -> String {
        self.join_role(Role::System)
    }

    /// Concatenated content of all human messages.
    pub fn human_text(&self) -> String {
        self.join_role(Role::Human)
    }

    fn join_role(&self, role: Role) -> String {
        self.messages
            .iter()
            .filter(|m| m.role == role)
            .map(|m| m.content.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// A rough token count (whitespace-separated words), used to report
    /// prompt sizes in benchmarks and traces.
    pub fn approx_tokens(&self) -> usize {
        self.messages
            .iter()
            .map(|m| m.content.split_whitespace().count())
            .sum()
    }

    /// Render the full conversation as readable text (used by trace dumps and
    /// the figure3_prompts binary).
    pub fn render(&self) -> String {
        self.messages
            .iter()
            .map(|m| format!("{}: {}", m.role, m.content))
            .collect::<Vec<_>>()
            .join("\n\n")
    }
}

impl fmt::Display for Conversation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversation_collects_messages_by_role() {
        let convo = Conversation::new()
            .with(ChatMessage::system("You are CAESURA"))
            .with(ChatMessage::human("My request is: count the paintings"))
            .with(ChatMessage::assistant("Step 1: ..."));
        assert_eq!(convo.messages().len(), 3);
        assert!(convo.system_text().contains("CAESURA"));
        assert!(convo.human_text().contains("count the paintings"));
    }

    #[test]
    fn token_estimate_counts_words() {
        let convo = Conversation::new().with(ChatMessage::human("one two three"));
        assert_eq!(convo.approx_tokens(), 3);
    }

    #[test]
    fn render_labels_roles() {
        let convo = Conversation::new()
            .with(ChatMessage::system("a"))
            .with(ChatMessage::human("b"));
        let text = convo.render();
        assert!(text.contains("System: a"));
        assert!(text.contains("Human: b"));
    }
}
