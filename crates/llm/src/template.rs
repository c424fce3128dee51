//! Query templates: literal normalisation and substitution for the plan
//! cache. This is parsing, not caching: [`normalize_query`] slots literals
//! out of a query so structurally identical queries share one
//! [`QueryTemplate`], the `normalize_*` / `instantiate_*` pairs thread the
//! same slots through a plan and its decisions, `literals_threaded` is the
//! insert-time proof that a plan carries every literal visibly, and
//! [`schema_fingerprint`] names the catalog a plan was validated on.

use crate::plan::{LogicalPlan, OperatorDecision};
use caesura_engine::Catalog;
use std::collections::HashSet;

/// A query normalized for plan-cache lookup: the text with quoted string
/// literals and standalone numbers replaced by slot markers, plus the
/// extracted literals in slot order.
///
/// Produced by [`normalize_query`]; equal templates (under equal schema
/// fingerprints) select the same cache entry, and the literals are what a hit
/// substitutes back into the cached plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTemplate {
    /// The query text with each literal occurrence replaced by its slot
    /// marker.
    pub template: String,
    /// The distinct literals, indexed by slot.
    pub literals: Vec<Literal>,
}

/// One literal extracted from a query by [`normalize_query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Literal {
    /// The literal's text, without surrounding quotes.
    pub value: String,
    /// Whether the literal was quoted in the query (`'...'` / `"..."`).
    /// Quoted literals are strings; unquoted ones are standalone numbers.
    pub quoted: bool,
}

/// Slot markers use a Unicode private-use character that cannot appear in
/// real queries or model output, so marker substitution is collision-free.
const SLOT_MARK: char = '\u{F8FF}';

pub(crate) fn slot_marker(index: usize) -> String {
    format!("{SLOT_MARK}{index}{SLOT_MARK}")
}

// The two `glued_*` helpers require token boundaries around bare-number
// literals (and around bare literal occurrences inside plan text), so `1990`
// never matches inside `1990s` or `x1990`.

/// Whether the byte *before* position `i` glues onto a token starting at `i`.
/// A `.` glues only as a decimal continuation (`1.30`); a sentence period or
/// ellipsis does not.
fn glued_before(bytes: &[u8], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let byte = bytes[i - 1];
    if byte.is_ascii_alphanumeric() || byte == b'_' {
        return true;
    }
    byte == b'.' && i >= 2 && bytes[i - 2].is_ascii_digit()
}

/// Whether the byte *at* position `end` glues onto a token ending at `end`.
/// A `.` glues only when it continues a decimal number (`30.5`); a `30` at
/// the end of a sentence (`points > 30.`) sits at a token boundary.
fn glued_after(bytes: &[u8], end: usize) -> bool {
    if end >= bytes.len() {
        return false;
    }
    let byte = bytes[end];
    if byte.is_ascii_alphanumeric() || byte == b'_' {
        return true;
    }
    byte == b'.' && end + 1 < bytes.len() && bytes[end + 1].is_ascii_digit()
}

/// Normalize a query into its plan-cache template: quoted string literals
/// (`'...'` or `"..."`) and standalone numbers (digits with an optional
/// single decimal point) are replaced by slot markers; everything else is
/// kept verbatim.
///
/// Slots are **deduplicated by value**: every occurrence of one literal maps
/// to one slot, so the template itself encodes the equality pattern of the
/// literals. Two queries share a template only when their literals are
/// equal/distinct in the same positions — which is what makes by-value
/// re-substitution into a cached plan unambiguous. An unterminated quote is
/// treated as plain text (apostrophes in prose never swallow the query).
pub fn normalize_query(query: &str) -> QueryTemplate {
    let bytes = query.as_bytes();
    let mut template = String::with_capacity(query.len());
    let mut literals: Vec<Literal> = Vec::new();
    let slot_of = |value: &str, quoted: bool, literals: &mut Vec<Literal>| -> String {
        let position = literals
            .iter()
            .position(|l| l.value == value && l.quoted == quoted);
        let index = match position {
            Some(index) => index,
            None => {
                literals.push(Literal {
                    value: value.to_string(),
                    quoted,
                });
                literals.len() - 1
            }
        };
        slot_marker(index)
    };
    let mut i = 0;
    while i < bytes.len() {
        let byte = bytes[i];
        if byte == b'\'' || byte == b'"' {
            // A quoted literal — but only if the quote is terminated.
            if let Some(rel) = query[i + 1..].find(byte as char) {
                let end = i + 1 + rel;
                let inner = &query[i + 1..end];
                let marker = slot_of(inner, true, &mut literals);
                template.push(byte as char);
                template.push_str(&marker);
                template.push(byte as char);
                i = end + 1;
                continue;
            }
            template.push(byte as char);
            i += 1;
            continue;
        }
        if byte.is_ascii_digit() && !glued_before(bytes, i) {
            // A standalone number: digits with at most one interior decimal
            // point, bounded by non-token bytes on both sides.
            let mut end = i;
            let mut seen_dot = false;
            while end < bytes.len() {
                let b = bytes[end];
                if b.is_ascii_digit() {
                    end += 1;
                } else if b == b'.'
                    && !seen_dot
                    && end + 1 < bytes.len()
                    && bytes[end + 1].is_ascii_digit()
                {
                    seen_dot = true;
                    end += 1;
                } else {
                    break;
                }
            }
            if !glued_after(bytes, end) {
                let marker = slot_of(&query[i..end], false, &mut literals);
                template.push_str(&marker);
                i = end;
                continue;
            }
            // Part of a larger token (`1990s`, `top10list`): keep verbatim.
            template.push_str(&query[i..end]);
            i = end;
            continue;
        }
        // Plain text: advance one full UTF-8 character.
        let ch = query[i..].chars().next().expect("in-bounds char");
        template.push(ch);
        i += ch.len_utf8();
    }
    QueryTemplate { template, literals }
}

/// Replace every occurrence of each literal in `text` with its slot marker.
///
/// Two passes, each longest-literal first so a literal that is a substring
/// of another never clobbers it:
///
/// 1. **Quoted occurrences** (`'lit'` / `"lit"`) of quoted literals — a
///    quoted occurrence is unambiguously the literal, never an identifier.
/// 2. **Bare occurrences** at token boundaries, which also reaches numbers
///    that the plan quoted (the quote itself is a token boundary). Skipped
///    when the value collides with a catalog `identifier` — a bare `status`
///    in SQL is a column reference, not the string literal `'status'`, and
///    rewriting it would corrupt the plan for every later probe — and for
///    one-character *string* literals (a bare `a` is almost always prose).
///    Single-character numbers **are** substituted: a standalone `5` in plan
///    text is the threaded-through literal, and leaving it baked in would
///    silently replay `5` for a probe asking about `9`.
fn slot_out(text: &str, literals: &[Literal], identifiers: &HashSet<&str>) -> String {
    let mut order: Vec<usize> = (0..literals.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(literals[i].value.len()));
    let mut out = text.to_string();
    for &index in &order {
        let literal = &literals[index];
        if !literal.quoted {
            continue;
        }
        let marker = slot_marker(index);
        out = out.replace(&format!("'{}'", literal.value), &format!("'{marker}'"));
        out = out.replace(&format!("\"{}\"", literal.value), &format!("\"{marker}\""));
    }
    for &index in &order {
        let literal = &literals[index];
        if literal.value.is_empty()
            || identifiers.contains(literal.value.as_str())
            || (literal.quoted && literal.value.len() < 2)
        {
            continue;
        }
        out = replace_bare(&out, &literal.value, &slot_marker(index));
    }
    out
}

/// Replace bare (unquoted) occurrences of `needle` that sit at token
/// boundaries on both sides. Never matches inside an existing slot marker:
/// a digit literal like `0` must not rewrite the index digits of another
/// slot's marker.
fn replace_bare(text: &str, needle: &str, replacement: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < bytes.len() {
        if text[i..].starts_with(needle) {
            let end = i + needle.len();
            if !glued_before(bytes, i)
                && !glued_after(bytes, end)
                && !text[..i].ends_with(SLOT_MARK)
                && !text[end..].starts_with(SLOT_MARK)
            {
                out.push_str(replacement);
                i = end;
                continue;
            }
        }
        let ch = text[i..].chars().next().expect("in-bounds char");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

/// Replace every slot marker in `text` with the probe's literal for that
/// slot. Markers use a private-use character, so this is collision-free.
fn fill_slots(text: &str, literals: &[Literal]) -> String {
    let mut out = text.to_string();
    for (index, literal) in literals.iter().enumerate() {
        out = out.replace(&slot_marker(index), &literal.value);
    }
    out
}

/// The table and column identifiers recorded in a schema fingerprint
/// ([`schema_fingerprint`] renders `table(col:type,...);` segments). Probes
/// and inserts under one key share one fingerprint, so both sides of a cache
/// entry see the same identifier set.
pub(crate) fn fingerprint_identifiers(fingerprint: &str) -> HashSet<&str> {
    let mut out = HashSet::new();
    for segment in fingerprint.split(';') {
        let segment = segment.trim();
        if segment.is_empty() {
            continue;
        }
        match segment.split_once('(') {
            Some((table, columns)) => {
                out.insert(table);
                for pair in columns.trim_end_matches(')').split(',') {
                    let name = pair.split_once(':').map_or(pair, |(name, _)| name);
                    if !name.is_empty() {
                        out.insert(name);
                    }
                }
            }
            // Not in fingerprint form (tests use opaque keys): treat the
            // whole segment as one identifier.
            None => {
                out.insert(segment);
            }
        }
    }
    out
}

/// Whether a *normalized* plan + decisions verifiably threaded every
/// template literal through: each literal's slot marker appears somewhere in
/// the text, and no un-slotted occurrence of the literal value remains that
/// a future probe's different value should have replaced. Occurrences equal
/// to a catalog identifier are exempt — they are schema references that must
/// survive re-substitution untouched.
///
/// A plan that fails this check (the planner paraphrased `'Baroque'` into
/// `baroque`, reformatted `98.5` into `98.50`, or simply never used the
/// literal) must not be cached: replaying it under different probe literals
/// would silently answer for the original values.
pub(crate) fn literals_threaded(
    template: &QueryTemplate,
    plan: &LogicalPlan,
    decisions: &[OperatorDecision],
    identifiers: &HashSet<&str>,
) -> bool {
    let mut segments: Vec<&str> = Vec::with_capacity(1 + plan.steps.len() + decisions.len() * 2);
    segments.push(&plan.thought);
    segments.extend(plan.steps.iter().map(|s| s.description.as_str()));
    for decision in decisions {
        segments.push(&decision.reasoning);
        segments.extend(decision.arguments.iter().map(String::as_str));
    }
    template
        .literals
        .iter()
        .enumerate()
        .all(|(index, literal)| {
            let marker = slot_marker(index);
            if !segments.iter().any(|s| s.contains(&marker)) {
                // The plan does not visibly carry this literal, so substitution
                // cannot reach whatever form it took.
                return false;
            }
            if literal.value.is_empty() || identifiers.contains(literal.value.as_str()) {
                return true;
            }
            let single = format!("'{}'", literal.value);
            let double = format!("\"{}\"", literal.value);
            segments.iter().all(|segment| {
                !segment.contains(&single)
                    && !segment.contains(&double)
                    && replace_bare(segment, &literal.value, &marker) == **segment
            })
        })
}

/// A plan with its literals slotted out, as stored in the cache.
pub(crate) fn normalize_plan(
    plan: &LogicalPlan,
    literals: &[Literal],
    identifiers: &HashSet<&str>,
) -> LogicalPlan {
    LogicalPlan {
        thought: slot_out(&plan.thought, literals, identifiers),
        steps: plan
            .steps
            .iter()
            .map(|step| crate::plan::LogicalStep {
                number: step.number,
                description: slot_out(&step.description, literals, identifiers),
                inputs: step.inputs.clone(),
                output: step.output.clone(),
                new_columns: step.new_columns.clone(),
            })
            .collect(),
    }
}

pub(crate) fn instantiate_plan(plan: &LogicalPlan, literals: &[Literal]) -> LogicalPlan {
    LogicalPlan {
        thought: fill_slots(&plan.thought, literals),
        steps: plan
            .steps
            .iter()
            .map(|step| crate::plan::LogicalStep {
                number: step.number,
                description: fill_slots(&step.description, literals),
                inputs: step.inputs.clone(),
                output: step.output.clone(),
                new_columns: step.new_columns.clone(),
            })
            .collect(),
    }
}

pub(crate) fn normalize_decisions(
    decisions: &[OperatorDecision],
    literals: &[Literal],
    identifiers: &HashSet<&str>,
) -> Vec<OperatorDecision> {
    decisions
        .iter()
        .map(|d| OperatorDecision {
            step_number: d.step_number,
            reasoning: slot_out(&d.reasoning, literals, identifiers),
            operator: d.operator,
            arguments: d
                .arguments
                .iter()
                .map(|a| slot_out(a, literals, identifiers))
                .collect(),
        })
        .collect()
}

pub(crate) fn instantiate_decisions(
    decisions: &[OperatorDecision],
    literals: &[Literal],
) -> Vec<OperatorDecision> {
    decisions
        .iter()
        .map(|d| OperatorDecision {
            step_number: d.step_number,
            reasoning: fill_slots(&d.reasoning, literals),
            operator: d.operator,
            arguments: d
                .arguments
                .iter()
                .map(|a| fill_slots(a, literals))
                .collect(),
        })
        .collect()
}

/// Fingerprint of the catalog a planner saw: every table with its column
/// name/type pairs, in catalog (name-sorted, deterministic) order. The full
/// string is the key component — no hashing, so distinct schemas can never
/// collide.
pub fn schema_fingerprint(catalog: &Catalog) -> String {
    let mut out = String::new();
    for table in catalog.tables() {
        out.push_str(table.name());
        out.push('(');
        for (i, field) in table.schema().fields().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&field.name);
            out.push(':');
            out.push_str(field.data_type.prompt_name());
        }
        out.push_str(");");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn literal_values(template: &QueryTemplate) -> Vec<&str> {
        template.literals.iter().map(|l| l.value.as_str()).collect()
    }

    #[test]
    fn normalize_slots_quoted_strings_and_numbers() {
        let t = normalize_query("How many paintings of the 'Baroque' movement sold above 1000?");
        assert_eq!(literal_values(&t), vec!["Baroque", "1000"]);
        assert!(t.literals[0].quoted);
        assert!(!t.literals[1].quoted);
        assert!(!t.template.contains("Baroque"));
        assert!(!t.template.contains("1000"));
        // Same shape, different literals → same template.
        let u = normalize_query("How many paintings of the 'Rococo' movement sold above 250?");
        assert_eq!(t.template, u.template);
        // Different shape → different template.
        let v = normalize_query("How many sculptures of the 'Rococo' movement sold above 250?");
        assert_ne!(t.template, v.template);
    }

    #[test]
    fn normalize_keeps_numbers_inside_tokens_and_unclosed_quotes() {
        let t = normalize_query("List the 1990s hits from the team's top10 songs");
        assert!(t.literals.is_empty(), "literals: {:?}", t.literals);
        assert_eq!(
            t.template,
            "List the 1990s hits from the team's top10 songs"
        );
        let u = normalize_query("Scores above 98.5 in 2024");
        assert_eq!(literal_values(&u), vec!["98.5", "2024"]);
    }

    #[test]
    fn repeated_literals_share_a_slot_so_patterns_must_match() {
        let twice = normalize_query("between 3 and 3");
        assert_eq!(literal_values(&twice), vec!["3"]);
        let distinct = normalize_query("between 3 and 5");
        assert_eq!(distinct.literals.len(), 2);
        // The equality pattern is part of the template itself.
        assert_ne!(twice.template, distinct.template);
    }

    #[test]
    fn schema_fingerprint_is_exact_and_order_stable() {
        use caesura_engine::{DataType, Schema, TableBuilder};
        let mut catalog = Catalog::new();
        let zeta = Schema::from_pairs(&[("id", DataType::Int)]);
        catalog.register(TableBuilder::new("zeta", zeta).build());
        let alpha = Schema::from_pairs(&[("name", DataType::Str)]);
        catalog.register(TableBuilder::new("alpha", alpha).build());
        let fp = schema_fingerprint(&catalog);
        // Catalog iteration is name-sorted, so registration order does not
        // perturb the fingerprint.
        assert_eq!(fp, "alpha(name:str);zeta(id:int);");
        let beta = Schema::from_pairs(&[("id", DataType::Int)]);
        catalog.register(TableBuilder::new("beta", beta).build());
        assert_ne!(schema_fingerprint(&catalog), fp);
    }
}
