//! Seeded fuzz properties of the simulated models' text front ends.
//!
//! The perception questions the simulated VisualQA and TextQA models parse
//! come from the planner's mapping arguments, and the planner's replies come
//! from a model: both are outside input. Two properties hold here:
//!
//! * **Parsers and the reader.** Suite-shaped questions and the small lakes'
//!   report documents, mutated with multi-byte and case-changing edits,
//!   deleted words and truncations, go into `parse_visual_question`,
//!   `parse_text_question`, `VisualQaModel::answer` and
//!   `TextQaModel::answer`. Every call returns (no panic, no hang), and every
//!   failure is a typed `ModalError`.
//! * **Chaos planner.** The suite queries run on the three `small()` lakes
//!   through sessions whose model wraps `SimulatedLlm` and mutates two of
//!   every three replies. Every query ends within `wait_timeout(5 s)`, and
//!   none ends in `CoreError::Internal` (a worker panic).
//!
//! The mutations draw from the in-repo `rand` shim, so every run is the same.

use caesura::core::{Caesura, CoreError};
use caesura::data::{
    generate_artwork, generate_fieldwork, generate_rotowire, ArtworkConfig, DataLake,
    FieldworkConfig, RotowireConfig,
};
use caesura::engine::{DataType, Value};
use caesura::eval::{benchmark_queries, fieldwork_queries, Dataset};
use caesura::llm::chat::Conversation;
use caesura::llm::{LlmClient, LlmResult, SimulatedLlm};
use caesura::modal::text_qa::parse_text_question;
use caesura::modal::visual_qa::parse_visual_question;
use caesura::modal::{ImageObject, TextQaModel, VisualQaModel};
use rand::{Rng, SeedableRng, StdRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Text a mutation splices in: multi-byte characters (two of which change
/// byte length under case mapping), whitespace, quotes, and the keywords the
/// parsers split on.
const SPLICES: &[&str] = &[
    "é",
    "İ",
    "ẞ",
    "ß",
    "“",
    "”",
    "…",
    "ﬁ",
    "\u{301}",
    "😀",
    " ",
    "  ",
    "\n",
    "?",
    "'",
    "did ",
    "how many ",
    " are ",
    " depicted",
    " and ",
    " defeated ",
    "win",
    "lose",
    "0",
    "-",
];

/// Characters of two, three and four bytes.
const MULTI_BYTE: &[&str] = &["é", "İ", "“", "…", "😀"];

/// A char boundary of `text`, drawn uniformly over its bytes.
fn boundary(text: &str, rng: &mut StdRng) -> usize {
    let mut at = rng.gen_range(0..=text.len());
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// A span `start..end` of `text` on char boundaries.
fn span(text: &str, rng: &mut StdRng) -> (usize, usize) {
    let (a, b) = (boundary(text, rng), boundary(text, rng));
    (a.min(b), a.max(b))
}

/// `text` after one to three random edits: a splice, a case change, a
/// truncation, a deleted word, a deleted span, a doubled span or a run of a
/// multi-byte character.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut out = text.to_string();
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..7u32) {
            0 => {
                let at = boundary(&out, rng);
                out.insert_str(at, SPLICES[rng.gen_range(0..SPLICES.len())]);
            }
            1 => {
                let (start, end) = span(&out, rng);
                let changed = if rng.gen_bool(0.5) {
                    out[start..end].to_uppercase()
                } else {
                    out[start..end].to_lowercase()
                };
                out.replace_range(start..end, &changed);
            }
            2 => {
                let at = boundary(&out, rng);
                out.truncate(at);
            }
            3 => {
                // Delete one word and keep the spaces around it.
                let words: Vec<(usize, usize)> = out
                    .split(' ')
                    .scan(0, |at, word| {
                        let start = *at;
                        *at += word.len() + 1;
                        Some((start, start + word.len()))
                    })
                    .collect();
                let (start, end) = words[rng.gen_range(0..words.len())];
                out.replace_range(start..end, "");
            }
            4 => {
                let (start, end) = span(&out, rng);
                out.replace_range(start..end, "");
            }
            5 => {
                let (start, end) = span(&out, rng);
                let copy = out[start..end].to_string();
                out.insert_str(end, &copy);
            }
            _ => {
                // A run of one multi-byte character, so that fixed byte
                // offsets (a length cap, a prefix) land inside one.
                let at = boundary(&out, rng);
                let run = MULTI_BYTE[rng.gen_range(0..MULTI_BYTE.len())];
                out.insert_str(at, &run.repeat(rng.gen_range(1..=200usize)));
            }
        }
    }
    out
}

/// The string cells of every column of type `data_type` in `lake`.
fn cells(lake: &DataLake, data_type: DataType) -> Vec<String> {
    let mut out = Vec::new();
    for table in lake.catalog().tables() {
        for field in table.schema().fields() {
            if field.data_type != data_type {
                continue;
            }
            for row in 0..table.num_rows() {
                if let Ok(Value::Str(s) | Value::Text(s) | Value::Image(s)) =
                    table.value(row, &field.name)
                {
                    out.push(s.to_string());
                }
            }
        }
    }
    out
}

fn lakes() -> [DataLake; 3] {
    [
        generate_artwork(&ArtworkConfig::small()).lake,
        generate_rotowire(&RotowireConfig::small()).lake,
        generate_fieldwork(&FieldworkConfig::small()).lake,
    ]
}

/// Question seeds in the shapes the simulated planner asks (see
/// `caesura_llm::mapping`), over the lakes' own entities and names, plus the
/// suite queries' text.
fn question_seeds(lakes: &[DataLake]) -> Vec<String> {
    let mut seeds = Vec::new();
    for lake in lakes {
        let images = lake.images();
        let mut entities: Vec<String> = cells(lake, DataType::Image)
            .iter()
            .filter_map(|key| images.get(key))
            .flat_map(|image: &ImageObject| image.objects.keys().cloned())
            .collect();
        entities.sort();
        entities.dedup();
        for entity in entities.iter().take(12) {
            seeds.push(format!("How many {entity}s are depicted?"));
            seeds.push(format!("Is {entity} depicted?"));
            seeds.push(format!("Is {entity} and {entity} depicted?"));
        }
        let mut names = cells(lake, DataType::Str);
        names.sort();
        names.dedup();
        for name in names.iter().take(12) {
            for stat in ["points did {} score", "specimens did {} collect"] {
                seeds.push(format!("How many {}?", stat.replace("{}", name)));
            }
            seeds.push(format!("Did {name} win?"));
            seeds.push(format!("Did {name} lose the game?"));
        }
    }
    let queries = benchmark_queries().into_iter().chain(fieldwork_queries());
    seeds.extend(queries.map(|q| q.text.to_string()));
    seeds
}

#[test]
fn mutated_questions_and_documents_never_panic_or_hang() {
    const QUESTIONS: usize = 20_000;
    let lakes = lakes();
    let seeds = question_seeds(&lakes);
    let documents: Vec<String> = lakes
        .iter()
        .flat_map(|lake| cells(lake, DataType::Text))
        .collect();
    let image = ImageObject::new("img/1.png")
        .with_object("Madonna", 1)
        .with_object("sword", 3);
    assert!(seeds.len() > 100 && documents.len() > 10);

    // The worker names each question before it asks it, so a hang is
    // reported with the question that caused it.
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(0xF022);
        for _ in 0..QUESTIONS {
            let mut question = seeds[rng.gen_range(0..seeds.len())].clone();
            if rng.gen_bool(0.9) {
                question = mutate(&question, &mut rng);
            }
            let mut document = documents[rng.gen_range(0..documents.len())].clone();
            if rng.gen_bool(0.5) {
                document = mutate(&document, &mut rng);
            }
            if tx.send(question.clone()).is_err() {
                return;
            }
            let _ = parse_visual_question(&question);
            let _ = parse_text_question(&question);
            let _ = VisualQaModel::new().answer(&image, &question);
            let _ = TextQaModel::new().answer(&document, &question);
        }
    });
    let mut asked = 0;
    let mut last = String::new();
    loop {
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(question) => {
                asked += 1;
                last = question;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("no answer within 5 s to question {asked}: {last:?}")
            }
        }
    }
    // A panic in the worker disconnects the channel early.
    assert_eq!(asked, QUESTIONS, "the worker stopped at {last:?}");
}

/// `SimulatedLlm` with two of every three replies mutated.
struct ChaosLlm {
    inner: SimulatedLlm,
    seed: u64,
    calls: AtomicU64,
}

impl LlmClient for ChaosLlm {
    fn complete(&self, conversation: &Conversation) -> LlmResult<String> {
        let reply = self.inner.complete(conversation)?;
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if call.is_multiple_of(3) {
            return Ok(reply);
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Ok(mutate(&reply, &mut rng))
    }

    fn name(&self) -> &str {
        "chaos"
    }
}

#[test]
fn suite_queries_under_a_mutating_planner_end_typed_and_in_time() {
    const SEEDS: u64 = 3;
    let [artwork, rotowire, fieldwork] = lakes();
    let mut runs = 0;
    for seed in 0..SEEDS {
        for (lake, dataset) in [
            (&artwork, Dataset::Artwork),
            (&rotowire, Dataset::Rotowire),
            (&fieldwork, Dataset::Fieldwork),
        ] {
            let llm = ChaosLlm {
                inner: SimulatedLlm::gpt4(),
                seed,
                calls: AtomicU64::new(0),
            };
            let session = Caesura::new(lake.clone(), Arc::new(llm));
            let queries = benchmark_queries().into_iter().chain(fieldwork_queries());
            for query in queries.filter(|q| q.dataset == dataset) {
                let handle = session.submit(query.text);
                let Some(run) = handle.wait_timeout(Duration::from_secs(5)) else {
                    // A stuck worker would block the session's drop.
                    std::mem::forget(session);
                    panic!("seed {seed}: {} did not end within 5 s", query.id);
                };
                if let Err(error @ CoreError::Internal { .. }) = &run.output {
                    panic!("seed {seed}: {} ended in {error}", query.id);
                }
                runs += 1;
            }
        }
    }
    assert_eq!(runs, SEEDS as usize * 90);
}
