//! The physical operator vocabulary of CAESURA and the table-level
//! implementations of the multi-modal operators.
//!
//! The paper's prototype exposes four multi-modal operators — VisualQA,
//! TextQA, Python UDFs, and Image Select — plus "all relational operators
//! supported by SQLite" and a plotting operator (§4). [`OperatorKind`]
//! enumerates that vocabulary together with the metadata (name, description,
//! argument signature) that the mapping-phase prompt presents to the language
//! model (Figure 3, right).

use crate::batch::{
    allocation_key, text_hash, BatchConfig, BatchStats, PerceptionBackend, PerceptionBatch,
};
use crate::cache::{CacheScope, PerceptionCache};
use crate::error::{ModalError, ModalResult};
use crate::image::ImageStore;
use crate::plot::{Plot, PlotKind, PlotSpec};
use crate::transform::TransformCodegen;
use caesura_engine::{ColumnBuilder, DataType, EngineError, Field, RowRef, Schema, Table, Value};
use caesura_store::PrehashedMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Every physical operator CAESURA can place in a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Relational join executed as SQL.
    SqlJoin,
    /// Relational selection executed as SQL (or a bare condition).
    SqlSelection,
    /// Relational grouping/aggregation executed as SQL.
    SqlAggregation,
    /// A general SQL query (projection, sorting, limits, ...).
    Sql,
    /// Visual question answering over an IMAGE column.
    VisualQa,
    /// Text question answering over a TEXT column (question templates).
    TextQa,
    /// Select rows whose image matches a free-text description.
    ImageSelect,
    /// The Python-UDF substitute: compute a new column from a description.
    PythonUdf,
    /// Produce a plot from the final result table.
    Plot,
}

impl OperatorKind {
    /// All operators, in the order they are listed in prompts.
    pub fn all() -> &'static [OperatorKind] {
        &[
            OperatorKind::SqlJoin,
            OperatorKind::SqlSelection,
            OperatorKind::SqlAggregation,
            OperatorKind::Sql,
            OperatorKind::VisualQa,
            OperatorKind::TextQa,
            OperatorKind::ImageSelect,
            OperatorKind::PythonUdf,
            OperatorKind::Plot,
        ]
    }

    /// The canonical operator name used in prompts and plan parsing.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorKind::SqlJoin => "SQL Join",
            OperatorKind::SqlSelection => "SQL Selection",
            OperatorKind::SqlAggregation => "SQL Aggregation",
            OperatorKind::Sql => "SQL Query",
            OperatorKind::VisualQa => "Visual Question Answering",
            OperatorKind::TextQa => "Text Question Answering",
            OperatorKind::ImageSelect => "Image Select",
            OperatorKind::PythonUdf => "Python",
            OperatorKind::Plot => "Plot",
        }
    }

    /// Parse an operator name as produced by the language model; accepts the
    /// canonical names plus common abbreviations.
    pub fn from_name(name: &str) -> Option<OperatorKind> {
        let normalized = name.trim().to_lowercase().replace(['_', '-'], " ");
        Some(match normalized.as_str() {
            "sql join" | "join" | "sql (join)" => OperatorKind::SqlJoin,
            "sql selection" | "selection" | "select" | "sql (selection)" | "filter" => {
                OperatorKind::SqlSelection
            }
            "sql aggregation" | "aggregation" | "aggregate" | "sql (aggregation)" | "group by" => {
                OperatorKind::SqlAggregation
            }
            "sql query" | "sql" | "query" | "projection" | "sort" => OperatorKind::Sql,
            "visual question answering" | "visualqa" | "visual qa" | "vqa" => {
                OperatorKind::VisualQa
            }
            "text question answering" | "textqa" | "text qa" | "tqa" => OperatorKind::TextQa,
            "image select" | "imageselect" | "image selection" => OperatorKind::ImageSelect,
            "python" | "python udf" | "udf" | "transform" => OperatorKind::PythonUdf,
            "plot" | "visualization" | "visualisation" | "chart" => OperatorKind::Plot,
            _ => return None,
        })
    }

    /// The description of the operator rendered into the mapping-phase prompt.
    pub fn description(&self) -> &'static str {
        match self {
            OperatorKind::SqlJoin => {
                "It is useful when you want to combine two tables on a common key column. \
                 The argument is a SQL SELECT statement with a JOIN clause."
            }
            OperatorKind::SqlSelection => {
                "It is useful when you want to keep only the rows of a table that satisfy a \
                 condition on existing columns (e.g. p.madonna_depicted = 'yes'). \
                 The argument is the condition."
            }
            OperatorKind::SqlAggregation => {
                "It is useful when you want to group a table by one or more columns and compute \
                 aggregates such as COUNT, SUM, AVG, MIN or MAX. The argument is a SQL SELECT \
                 statement with a GROUP BY clause."
            }
            OperatorKind::Sql => {
                "It is useful for any other relational processing such as projecting columns, \
                 sorting, or limiting the output. The argument is a SQL SELECT statement."
            }
            OperatorKind::VisualQa => {
                "It is useful when you want to extract structured information from images \
                 (columns of type IMAGE), e.g. to count depicted objects or check what is \
                 depicted. Arguments: (image column; new column name; question; result datatype)."
            }
            OperatorKind::TextQa => {
                "It is useful when you want to extract structured information from text documents \
                 (columns of type TEXT). The question is a template that may reference other \
                 columns in angle brackets, e.g. 'How many points did <name> score?'. \
                 Arguments: (text column; new column name; question template; result datatype)."
            }
            OperatorKind::ImageSelect => {
                "It is useful when you want to select tuples based on what is depicted in images \
                 (columns of type IMAGE). Arguments: (image column; description of the images to keep)."
            }
            OperatorKind::PythonUdf => {
                "It is useful when you need to compute a new column from existing columns, e.g. \
                 extracting the century from a date string or converting values. \
                 Arguments: (description of the transformation; new column name)."
            }
            OperatorKind::Plot => {
                "It is useful as the final step when the user asked for a plot. \
                 Arguments: (plot kind [bar/line/scatter]; x-axis column; y-axis column)."
            }
        }
    }

    /// The non-relational column type the operator reads, if any. A mapping
    /// prompt offers such an operator only to a step whose input tables have
    /// a column of that type.
    pub fn required_modality(&self) -> Option<DataType> {
        match self {
            OperatorKind::VisualQa | OperatorKind::ImageSelect => Some(DataType::Image),
            OperatorKind::TextQa => Some(DataType::Text),
            _ => None,
        }
    }

    /// Whether the operator consumes non-relational modalities.
    pub fn is_multimodal(&self) -> bool {
        self.required_modality().is_some()
    }

    /// Render the `You can use the following operators:` prompt block for a
    /// step whose inputs hold the given modalities: operators that
    /// [require](OperatorKind::required_modality) an absent one are left out.
    pub fn prompt_catalog(image: bool, text: bool) -> String {
        OperatorKind::all()
            .iter()
            .filter(|op| match op.required_modality() {
                Some(DataType::Image) => image,
                Some(DataType::Text) => text,
                _ => true,
            })
            .map(|op| format!("{}: {}", op.name(), op.description()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Parse a result-datatype argument ("int", "str", "float", "bool").
pub fn parse_result_dtype(text: &str) -> DataType {
    match text.trim().to_lowercase().as_str() {
        "int" | "integer" | "number" => DataType::Int,
        "float" | "double" | "real" => DataType::Float,
        "bool" | "boolean" => DataType::Bool,
        _ => DataType::Str,
    }
}

/// A typed execution error for a cell whose value does not match the
/// modality its column declares (e.g. an error string landing in a TEXT
/// column). The row index pins the offending tuple for error analysis.
fn cell_type_error(row: usize, column: &str, value: &Value, expected: &str) -> EngineError {
    EngineError::execution(format!(
        "row {row} of column '{column}' holds the {} value {} where {expected} was expected",
        value.data_type().prompt_name(),
        value.preview(40),
    ))
}

/// How a perception operator reaches its model, borrowed from the executor
/// for the length of one step.
#[derive(Clone, Copy)]
pub struct Perception<'a> {
    /// The model that answers the step's questions.
    pub backend: &'a dyn PerceptionBackend,
    /// How many unique requests one backend dispatch carries.
    pub batch: BatchConfig,
    /// The session's answer cache, probed before the backend; `None`
    /// dispatches every unique request.
    pub cache: Option<&'a PerceptionCache>,
}

/// The outcome of a step rejected before its gather: nothing was dispatched.
fn rejected(error: ModalError) -> (BatchStats, ModalResult<Table>) {
    (BatchStats::default(), Err(error))
}

/// Dispatch a gathered perception batch and scatter the answers into a new
/// column of `result_type`. The first error in row order wins — dispatch
/// errors cover rows gathered *before* `pending_error`'s row (the
/// gather-phase error from a missing image or mistyped cell), so they take
/// precedence — exactly like the row-at-a-time path. Stats are returned
/// alongside the result so failed dispatches still account for their calls.
fn dispatch_into_column(
    table: &Table,
    out_schema: Schema,
    (collector, pending_error): (PerceptionBatch, Option<EngineError>),
    perception: Perception<'_>,
    scope: CacheScope,
    result_type: DataType,
) -> (BatchStats, ModalResult<Table>) {
    let cache = perception.cache.map(|cache| (cache, scope));
    let (answers, stats) = collector.dispatch(perception.backend, &perception.batch, cache);
    let result = answers.and_then(|answers| {
        if let Some(error) = pending_error {
            return Err(ModalError::Engine(error));
        }
        let mut builder = ColumnBuilder::with_capacity(result_type, table.num_rows());
        for answer in answers {
            match answer {
                None => builder.push(Value::Null),
                Some(value) => builder.push(coerce(value, result_type)),
            }
        }
        let mut columns = table.columns().to_vec();
        columns.push(Arc::new(builder.finish()));
        table
            .with_columns(out_schema, columns)
            .map_err(ModalError::Engine)
    });
    (stats, result)
}

/// Apply the VisualQA operator: answer `question` for the image referenced by
/// `image_column` in every row and store the answer in `new_column`.
///
/// The per-row model calls are gathered, deduplicated, and dispatched in
/// batches by the [`crate::batch`] layer. The saved-call statistics ride
/// alongside the result (not inside it) so the calls of a dispatch that
/// ultimately failed are still accounted for.
pub fn apply_visual_qa(
    table: &Table,
    store: &ImageStore,
    perception: Perception<'_>,
    image_column: &str,
    new_column: &str,
    question: &str,
    result_type: DataType,
) -> (BatchStats, ModalResult<Table>) {
    let checked = || {
        let schema = table.schema();
        let idx = schema.resolve(image_column).map_err(ModalError::Engine)?;
        let field_type = schema.field(idx).map(|f| f.data_type);
        if field_type != Some(DataType::Image) {
            return Err(ModalError::InvalidArguments {
                operator: OperatorKind::VisualQa.name().to_string(),
                message: format!(
                    "column '{image_column}' has type {} but VisualQA requires an IMAGE column",
                    field_type.map(|t| t.prompt_name()).unwrap_or("unknown")
                ),
            });
        }
        // Reserve the output field before any model call (the row-at-a-time
        // path failed on duplicate column names before reading the first row).
        let mut out_schema = schema.clone();
        out_schema
            .push(Field::new(new_column, result_type))
            .map_err(ModalError::Engine)?;
        Ok((idx, out_schema))
    };
    let (idx, out_schema) = match checked() {
        Ok(checked) => checked,
        Err(error) => return rejected(error),
    };
    dispatch_into_column(
        table,
        out_schema,
        gather_image_requests(table, store, idx, image_column, question),
        perception,
        CacheScope::VisualQa,
        result_type,
    )
}

/// Gather one image request per non-NULL row of `image_column`, stopping at
/// the first row whose cell cannot be resolved — a missing image or a
/// mistyped cell — so no model call is made for later rows, just like the
/// sequential path. Shared by VisualQA and Image Select.
fn gather_image_requests(
    table: &Table,
    store: &ImageStore,
    idx: usize,
    image_column: &str,
    question: &str,
) -> (PerceptionBatch, Option<EngineError>) {
    let mut collector = PerceptionBatch::with_capacity(table.num_rows());
    // The step's one question, shared and hashed once for every request
    // gathered below.
    let question: Arc<str> = question.into();
    let question_hash = text_hash(&question);
    for row in table.rows() {
        match row.get(idx) {
            Value::Image(key) => match store.get_shared(&key) {
                Some(image) => collector.push_image(image, &question, question_hash),
                None => {
                    let error = EngineError::execution(format!(
                        "image '{key}' was not found in the image store"
                    ));
                    return (collector, Some(error));
                }
            },
            Value::Null => collector.push_null(),
            other => {
                let error =
                    cell_type_error(row.index(), image_column, &other, "an IMAGE reference");
                return (collector, Some(error));
            }
        }
    }
    (collector, None)
}

/// Apply the TextQA operator: instantiate `question_template` per row (filling
/// `<column>` placeholders from the row) and answer it against the document in
/// `text_column`, storing the answer in `new_column`.
///
/// Dedup pays off whenever several rows instantiate the same question over
/// the same document (e.g. game reports repeated once per participating
/// team). The saved-call statistics ride alongside the result so failed
/// dispatches still account for their calls.
pub fn apply_text_qa(
    table: &Table,
    perception: Perception<'_>,
    text_column: &str,
    new_column: &str,
    question_template: &str,
    result_type: DataType,
) -> (BatchStats, ModalResult<Table>) {
    let checked = || {
        let schema = table.schema();
        let idx = schema.resolve(text_column).map_err(ModalError::Engine)?;
        let field_type = schema.field(idx).map(|f| f.data_type);
        if field_type != Some(DataType::Text) {
            return Err(ModalError::InvalidArguments {
                operator: OperatorKind::TextQa.name().to_string(),
                message: format!(
                    "column '{text_column}' has type {} but TextQA requires a TEXT column",
                    field_type.map(|t| t.prompt_name()).unwrap_or("unknown")
                ),
            });
        }
        // Compile the template once for the step; this also validates that
        // every placeholder resolves to a column.
        let template = QuestionTemplate::compile(question_template, schema)?;
        let mut out_schema = schema.clone();
        out_schema
            .push(Field::new(new_column, result_type))
            .map_err(ModalError::Engine)?;
        Ok((idx, template, out_schema))
    };
    let (idx, template, out_schema) = match checked() {
        Ok(checked) => checked,
        Err(error) => return rejected(error),
    };

    let mut collector = PerceptionBatch::with_capacity(table.num_rows());
    let mut pending_error = None;
    // Every row's question is rendered into this one buffer.
    let mut question = String::new();
    // Each distinct document allocation is hashed once: `table` keeps every
    // cell's `Arc` alive for the whole step, so an address names one document.
    let mut document_hashes =
        PrehashedMap::with_capacity_and_hasher(table.num_rows(), Default::default());
    for row in table.rows() {
        // Borrow the document for the dedup probe; only genuinely new
        // (document, question) pairs are copied into a request.
        let document = match row.get(idx) {
            Value::Text(text) => text,
            Value::Null => {
                collector.push_null();
                continue;
            }
            other => {
                pending_error = Some(cell_type_error(
                    row.index(),
                    text_column,
                    &other,
                    "a TEXT document",
                ));
                break;
            }
        };
        let document_hash = *document_hashes
            .entry(allocation_key(&document))
            .or_insert_with(|| text_hash(&document));
        template.render(&row, &mut question);
        collector.push_document(&document, document_hash, &question, text_hash(&question));
    }
    dispatch_into_column(
        table,
        out_schema,
        (collector, pending_error),
        perception,
        CacheScope::TextQa,
        result_type,
    )
}

/// Apply the Image Select operator: keep only rows whose image matches the
/// description.
///
/// Because the description is constant across rows, dedup collapses the
/// calls to one per *distinct* image regardless of how often an image
/// appears in the input. The saved-call statistics ride alongside the result
/// so failed dispatches still account for their calls.
pub fn apply_image_select(
    table: &Table,
    store: &ImageStore,
    perception: Perception<'_>,
    image_column: &str,
    description: &str,
) -> (BatchStats, ModalResult<Table>) {
    let schema = table.schema();
    let idx = match schema.resolve(image_column) {
        Ok(idx) => idx,
        Err(error) => return rejected(ModalError::Engine(error)),
    };
    if schema.field(idx).map(|f| f.data_type) != Some(DataType::Image) {
        return rejected(ModalError::InvalidArguments {
            operator: OperatorKind::ImageSelect.name().to_string(),
            message: format!("column '{image_column}' is not an IMAGE column"),
        });
    }
    let (collector, pending_error) =
        gather_image_requests(table, store, idx, image_column, description);
    let cache = perception.cache.map(|c| (c, CacheScope::ImageSelect));
    let (answers, stats) = collector.dispatch(perception.backend, &perception.batch, cache);
    let selected = answers.and_then(|answers| {
        if let Some(error) = pending_error {
            return Err(ModalError::Engine(error));
        }
        let mut indices = Vec::new();
        for (row, answer) in answers.into_iter().enumerate() {
            match answer {
                // NULL images never match (the row-at-a-time path returned false).
                None => {}
                Some(value) if truthy_answer(&value) => indices.push(row),
                Some(_) => {}
            }
        }
        if indices.len() == table.num_rows() {
            return Ok(table.shared_copy());
        }
        Ok(table.take(&indices))
    });
    (stats, selected)
}

/// Interpret a perception answer as a selection decision: a boolean, or a
/// yes/true string (what an LLM-backed selection backend produces).
fn truthy_answer(value: &Value) -> bool {
    match value {
        Value::Bool(b) => *b,
        Value::Str(s) => matches!(
            s.trim().trim_end_matches('.').to_lowercase().as_str(),
            "yes" | "true"
        ),
        _ => false,
    }
}

/// The version string namespacing persisted transform compiles. The codegen
/// is deterministic and model-independent in this reproduction, so the
/// identity only needs to change when the compiler's behaviour does.
const TRANSFORM_CODEGEN_IDENTITY: &str = "codegen:transform:v1";

/// Apply the Python-UDF substitute: compile the description and compute the
/// new column.
///
/// The operator's only model-backed path is the description → code
/// compilation — one call per invocation regardless of row count (the
/// compiled program evaluates vectorized, without further model calls),
/// which is recorded on the same stats channel as the batched perception
/// operators. `rows` stays 0: the compile is invocation-granular, not
/// per-row, so it must not skew per-row dedup ratios — and the compile call
/// is counted even when it fails.
///
/// The durable tier of `cache` is probed for the compiled program. The
/// codegen has no in-memory cache tier (compiling is a deterministic
/// in-process call — see [`PerceptionCache::transform_disk_get`]), so
/// without an attached disk store `cache` changes nothing, stats included.
/// With one, the compile counts as a memory miss plus a disk hit or miss,
/// keeping every [`BatchStats`] tier invariant intact: on a disk hit the
/// call never dispatches ([`BatchStats::dispatched_requests`] and `batches`
/// stay 0, as for a fully cached perception step — a restarted session
/// replays the operator without re-issuing the simulated codegen call), and
/// a fresh compile is written through round-trip-validated.
pub fn apply_python_udf(
    table: &Table,
    codegen: &TransformCodegen,
    description: &str,
    new_column: &str,
    cache: Option<&PerceptionCache>,
) -> (BatchStats, ModalResult<Table>) {
    let base = BatchStats {
        rows: 0,
        null_rows: 0,
        unique_requests: 1,
        batches: 1,
        saved_calls: 0,
        ..BatchStats::default()
    };
    let schema = table.schema();
    match cache.filter(|c| c.has_disk()) {
        None => {
            let result = codegen
                .compile(description, schema)
                .and_then(|program| program.apply(table, new_column));
            (base, result)
        }
        Some(cache) => {
            if let Some(program) =
                cache.transform_disk_get(TRANSFORM_CODEGEN_IDENTITY, description, schema)
            {
                // Answered from the store: nothing was dispatched.
                let stats = BatchStats {
                    batches: 0,
                    cache_misses: 1,
                    disk_hits: 1,
                    ..base
                };
                return (stats, program.apply(table, new_column));
            }
            let compiled = codegen.compile(description, schema);
            let disk_writes = match &compiled {
                Ok(program) => usize::from(cache.transform_disk_put(
                    TRANSFORM_CODEGEN_IDENTITY,
                    description,
                    schema,
                    program,
                )),
                // Failed compiles are never cached, mirroring the
                // errors-are-never-cached rule of the perception tiers.
                Err(_) => 0,
            };
            let stats = BatchStats {
                cache_misses: 1,
                disk_misses: 1,
                disk_writes,
                ..base
            };
            let result = compiled.and_then(|program| program.apply(table, new_column));
            (stats, result)
        }
    }
}

/// Apply the Plot operator to a result table.
pub fn apply_plot(table: &Table, kind: &str, x_column: &str, y_column: &str) -> ModalResult<Plot> {
    let kind = PlotKind::from_name(kind)?;
    Plot::from_table(table, PlotSpec::new(kind, x_column, y_column))
}

/// Whether a `<...>` span can be a column placeholder: non-empty and free of
/// whitespace and nested `<` — column names (including qualified ones like
/// `teams.name`, or names with hyphens) never contain either, while the
/// literal-`<` spans of comparison text (`"score < 5 for <name>"` yields the
/// span `" 5 for <name"`) always do. Unknown placeholder *names* still fail
/// loudly against the schema in the operator layer.
fn is_placeholder_span(inner: &str) -> bool {
    !inner.is_empty() && inner.chars().all(|c| !c.is_whitespace() && c != '<')
}

/// One span of a question template, in template order.
enum TemplateSpan<'t> {
    /// Text copied into every question as it stands.
    Literal(&'t str),
    /// The name between the brackets of a `<name>` placeholder.
    Placeholder(&'t str),
}

/// Split a question template into literal text and `<name>` placeholders.
///
/// Only `<...>` spans that look like a column name are placeholders (see
/// `is_placeholder_span`); a literal `<` (e.g. in
/// `"is score < 5 for <name>?"`) stays literal text instead of swallowing
/// everything up to the next `>`.
fn template_spans(template: &str) -> Vec<TemplateSpan<'_>> {
    let mut spans = Vec::new();
    // `template[literal..]` is not yet emitted; `template[scan..]` is not yet
    // searched for a '<'.
    let (mut literal, mut scan) = (0, 0);
    while let Some(open) = template[scan..].find('<').map(|at| scan + at) {
        let inner = open + 1;
        match template[inner..].find('>').map(|at| inner + at) {
            Some(close) if is_placeholder_span(&template[inner..close]) => {
                if literal < open {
                    spans.push(TemplateSpan::Literal(&template[literal..open]));
                }
                spans.push(TemplateSpan::Placeholder(&template[inner..close]));
                literal = close + 1;
                scan = literal;
            }
            // Not a placeholder: step past the '<' only, so a later
            // well-formed `<name>` is still recognized.
            Some(_) => scan = inner,
            None => break,
        }
    }
    if literal < template.len() {
        spans.push(TemplateSpan::Literal(&template[literal..]));
    }
    spans
}

/// Placeholders (`<name>`) appearing in a question template, each once, in
/// order of first appearance.
pub fn template_placeholders(template: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for span in template_spans(template) {
        if let TemplateSpan::Placeholder(name) = span {
            if !out.iter().any(|seen| seen == name) {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// A TextQA question template compiled for one step: the template's spans
/// with every placeholder resolved to the index of the column that fills it.
struct QuestionTemplate<'t> {
    segments: Vec<Segment<'t>>,
}

enum Segment<'t> {
    Literal(&'t str),
    Column(usize),
}

impl<'t> QuestionTemplate<'t> {
    /// Compile `template` against the input table's schema. Fails on the
    /// first placeholder that names no column.
    fn compile(template: &'t str, schema: &Schema) -> ModalResult<Self> {
        let resolve = |span| match span {
            TemplateSpan::Literal(text) => Ok(Segment::Literal(text)),
            TemplateSpan::Placeholder(name) => match schema.resolve(name) {
                Ok(idx) => Ok(Segment::Column(idx)),
                Err(_) => Err(ModalError::InvalidArguments {
                    operator: OperatorKind::TextQa.name().to_string(),
                    message: format!(
                        "the question template references '<{name}>' but the input table has \
                         no such column (available: {:?})",
                        schema.names()
                    ),
                }),
            },
        };
        let segments = template_spans(template).into_iter().map(resolve);
        Ok(QuestionTemplate {
            segments: segments.collect::<ModalResult<_>>()?,
        })
    }

    /// Overwrite `out` with the question for `row`. Each span of the
    /// *template* is substituted exactly once: a cell whose text happens to
    /// contain `<other_column>` arrives in the question as it stands.
    fn render(&self, row: &RowRef<'_>, out: &mut String) {
        out.clear();
        for segment in &self.segments {
            match segment {
                Segment::Literal(text) => out.push_str(text),
                // The cell is rendered where it lies, never copied into a
                // value first.
                Segment::Column(idx) => {
                    write!(out, "{}", row.cell(*idx)).expect("writing to a String cannot fail")
                }
            }
        }
    }
}

/// Coerce a model answer into the declared result type.
///
/// An answer that cannot be parsed into the target type becomes
/// `Value::Null` (the model "could not extract" the value) instead of being
/// kept as a raw string: keeping it would produce a mixed-type column whose
/// declared [`DataType`] lies, breaking downstream typed kernels.
fn coerce(value: Value, target: DataType) -> Value {
    match (target, &value) {
        (DataType::Int, Value::Str(s)) => s
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .unwrap_or(Value::Null),
        // Whole floats within i64 range convert exactly; everything else
        // (fractions, NaN/inf, out-of-range magnitudes that would saturate)
        // becomes NULL.
        (DataType::Int, Value::Float(f))
            if f.fract() == 0.0
                && *f >= -9_223_372_036_854_775_808.0
                && *f < 9_223_372_036_854_775_808.0 =>
        {
            Value::Int(*f as i64)
        }
        (DataType::Int, Value::Float(_)) => Value::Null,
        (DataType::Float, Value::Int(i)) => Value::Float(*i as f64),
        (DataType::Float, Value::Str(s)) => s
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .unwrap_or(Value::Null),
        // Same normalization as `truthy_answer`, so an LLM answering "Yes."
        // reads identically for a bool-typed QA column and for Image Select.
        (DataType::Bool, Value::Str(s)) => {
            match s.trim().trim_end_matches('.').to_lowercase().as_str() {
                "yes" | "true" => Value::Bool(true),
                "no" | "false" => Value::Bool(false),
                _ => Value::Null,
            }
        }
        (DataType::Str, Value::Int(i)) => Value::str(i.to_string()),
        (DataType::Str, Value::Float(f)) => Value::str(f.to_string()),
        (DataType::Str, Value::Bool(b)) => Value::str(if *b { "yes" } else { "no" }),
        // Final guard: never let a value of the wrong type through (it would
        // flip the column to the mixed representation behind the declared
        // type's back). NULLs and already-matching values pass.
        _ => {
            if value.is_null() || value.data_type() == target {
                value
            } else {
                Value::Null
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageObject;
    use crate::image_select::ImageSelectModel;
    use crate::text_qa::TextQaModel;
    use crate::visual_qa::VisualQaModel;
    use caesura_engine::{Schema, TableBuilder};

    /// `backend` under the default batch size, uncached.
    fn model(backend: &dyn PerceptionBackend) -> Perception<'_> {
        Perception {
            backend,
            batch: BatchConfig::default(),
            cache: None,
        }
    }

    fn image_store() -> ImageStore {
        let mut store = ImageStore::new();
        store.insert(
            ImageObject::new("img/1.png")
                .with_object("Madonna", 1)
                .with_object("Child", 1)
                .with_object("sword", 2),
        );
        store.insert(ImageObject::new("img/2.png").with_object("iris", 12));
        store
    }

    fn joined_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("title", DataType::Str),
            ("img_path", DataType::Str),
            ("image", DataType::Image),
        ]);
        let mut b = TableBuilder::new("joined_table", schema);
        b.push_row(vec![
            Value::str("Madonna"),
            Value::str("img/1.png"),
            Value::image("img/1.png"),
        ])
        .unwrap();
        b.push_row(vec![
            Value::str("Irises"),
            Value::str("img/2.png"),
            Value::image("img/2.png"),
        ])
        .unwrap();
        b.build()
    }

    fn reports_table() -> Table {
        let schema = Schema::from_pairs(&[("name", DataType::Str), ("report", DataType::Text)]);
        let mut b = TableBuilder::new("final_joined_table", schema);
        let report = "The Spurs defeated the Heat 110-102. The Heat scored 102 points \
                      while the Spurs scored 110 points.";
        b.push_row(vec![Value::str("Heat"), Value::text(report)])
            .unwrap();
        b.push_row(vec![Value::str("Spurs"), Value::text(report)])
            .unwrap();
        b.build()
    }

    #[test]
    fn visual_qa_adds_the_num_swords_column() {
        let out = apply_visual_qa(
            &joined_table(),
            &image_store(),
            model(&VisualQaModel::new()),
            "image",
            "num_swords",
            "How many swords are depicted?",
            DataType::Int,
        )
        .1
        .unwrap();
        assert_eq!(out.value(0, "num_swords").unwrap(), Value::Int(2));
        assert_eq!(out.value(1, "num_swords").unwrap(), Value::Int(0));
    }

    #[test]
    fn visual_qa_rejects_non_image_columns() {
        let err = apply_visual_qa(
            &joined_table(),
            &image_store(),
            model(&VisualQaModel::new()),
            "title",
            "x",
            "How many swords are depicted?",
            DataType::Int,
        )
        .1
        .unwrap_err();
        assert!(err.to_string().contains("IMAGE column"));
    }

    #[test]
    fn text_qa_instantiates_the_template_per_row() {
        let out = apply_text_qa(
            &reports_table(),
            model(&TextQaModel::new()),
            "report",
            "points_scored",
            "How many points did <name> score?",
            DataType::Int,
        )
        .1
        .unwrap();
        assert_eq!(out.value(0, "points_scored").unwrap(), Value::Int(102));
        assert_eq!(out.value(1, "points_scored").unwrap(), Value::Int(110));
    }

    #[test]
    fn text_qa_rejects_unknown_placeholder_columns() {
        let err = apply_text_qa(
            &reports_table(),
            model(&TextQaModel::new()),
            "report",
            "points",
            "How many points did <team_name> score?",
            DataType::Int,
        )
        .1
        .unwrap_err();
        assert!(err.to_string().contains("team_name"));
    }

    #[test]
    fn image_select_filters_rows() {
        let out = apply_image_select(
            &joined_table(),
            &image_store(),
            model(&ImageSelectModel::new()),
            "image",
            "paintings depicting Madonna and Child",
        )
        .1
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "title").unwrap(), Value::str("Madonna"));
    }

    #[test]
    fn python_udf_and_plot_round_trip() {
        let schema =
            Schema::from_pairs(&[("inception", DataType::Str), ("num_swords", DataType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        b.push_values::<_, Value>(vec![Value::str("1480-05-12"), Value::Int(5)])
            .unwrap();
        b.push_values::<_, Value>(vec![Value::str("1889-01-05"), Value::Int(2)])
            .unwrap();
        let table = b.build();
        let with_century = apply_python_udf(
            &table,
            &TransformCodegen::new(),
            "Extract the century from the dates in the 'inception' column",
            "century",
            None,
        )
        .1
        .unwrap();
        let plot = apply_plot(&with_century, "bar", "century", "num_swords").unwrap();
        assert_eq!(plot.points.len(), 2);
        assert_eq!(plot.points[0].label, "15");
    }

    /// A transform answered from the disk tier dispatched nothing: `batches`
    /// and `dispatched_requests()` are 0, as for a fully cached perception
    /// step. Without a store every execution compiles and counts one batch.
    #[test]
    fn python_udf_answered_from_disk_counts_no_dispatch() {
        let schema = Schema::from_pairs(&[("inception", DataType::Str)]);
        let mut b = TableBuilder::new("t", schema);
        b.push_values::<_, Value>(vec![Value::str("1480-05-12")])
            .unwrap();
        let table = b.build();
        let apply = |cache: Option<&PerceptionCache>| {
            let describe = "Extract the century from the dates in the 'inception' column";
            let (stats, result) =
                apply_python_udf(&table, &TransformCodegen::new(), describe, "century", cache);
            assert_eq!(result.unwrap().value(0, "century").unwrap(), Value::Int(15));
            stats
        };
        let compile = BatchStats {
            unique_requests: 1,
            batches: 1,
            ..BatchStats::default()
        };
        let memory_only = PerceptionCache::with_capacity(8);
        for cache in [None, Some(&memory_only), Some(&memory_only)] {
            assert_eq!(apply(cache), compile);
        }

        let dir = std::env::temp_dir().join(format!("caesura-udf-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let over_store = || {
            let mut cache = PerceptionCache::with_capacity(8);
            cache.attach_disk(Arc::new(caesura_store::CacheStore::open(&dir).unwrap()));
            cache
        };
        let written = BatchStats {
            cache_misses: 1,
            disk_misses: 1,
            disk_writes: 1,
            ..compile
        };
        assert_eq!(apply(Some(&over_store())), written);
        let replayed = apply(Some(&over_store()));
        let disk_hit = BatchStats {
            unique_requests: 1,
            cache_misses: 1,
            disk_hits: 1,
            ..BatchStats::default()
        };
        assert_eq!(replayed, disk_hit);
        assert_eq!((replayed.batches, replayed.dispatched_requests()), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn operator_names_round_trip_and_catalog_renders() {
        for op in OperatorKind::all() {
            assert_eq!(OperatorKind::from_name(op.name()), Some(*op));
        }
        assert_eq!(
            OperatorKind::from_name("Visual Question Answering"),
            Some(OperatorKind::VisualQa)
        );
        assert_eq!(OperatorKind::from_name("nonsense"), None);
        let catalog = OperatorKind::prompt_catalog(true, true);
        assert!(catalog.contains("Image Select"));
        assert!(catalog.contains("IMAGE"));
        assert_eq!(catalog.lines().count(), OperatorKind::all().len());
    }

    #[test]
    fn prompt_catalog_offers_perception_operators_by_required_modality() {
        let relational = OperatorKind::prompt_catalog(false, false);
        assert_eq!(relational.lines().count(), 6);
        for op in OperatorKind::all() {
            let offered = relational.contains(&format!("{}: ", op.name()));
            assert_eq!(offered, op.required_modality().is_none(), "{op:?}");
            // The typed requirement and the description agree, so nothing
            // has to read the description to decide.
            let mentions = |dtype: &str| op.description().contains(&format!("type {dtype}"));
            assert_eq!(
                op.required_modality(),
                match (mentions("IMAGE"), mentions("TEXT")) {
                    (true, false) => Some(DataType::Image),
                    (false, true) => Some(DataType::Text),
                    _ => None,
                }
            );
        }
        let images = OperatorKind::prompt_catalog(true, false);
        assert!(
            images.contains("Visual Question Answering: ") && images.contains("Image Select: ")
        );
        assert!(!images.contains("Text Question Answering: "));
        let texts = OperatorKind::prompt_catalog(false, true);
        assert!(texts.contains("Text Question Answering: ") && !texts.contains("Image Select: "));
    }

    #[test]
    fn dtype_parsing_and_coercion() {
        assert_eq!(parse_result_dtype("int"), DataType::Int);
        assert_eq!(parse_result_dtype("string"), DataType::Str);
        assert_eq!(coerce(Value::str("42"), DataType::Int), Value::Int(42));
        assert_eq!(coerce(Value::str("yes"), DataType::Bool), Value::Bool(true));
        assert_eq!(coerce(Value::Int(3), DataType::Str), Value::str("3"));
    }

    #[test]
    fn unparseable_answers_coerce_to_null_not_mixed_columns() {
        // A raw string that fails to parse must become NULL, not stay a Str
        // value inside a column whose declared type says Int/Float/Bool.
        assert_eq!(coerce(Value::str("unknown"), DataType::Int), Value::Null);
        assert_eq!(coerce(Value::str("n/a"), DataType::Float), Value::Null);
        assert_eq!(coerce(Value::str("maybe"), DataType::Bool), Value::Null);
        // The previously missing Float arms.
        assert_eq!(coerce(Value::Float(4.0), DataType::Int), Value::Int(4));
        assert_eq!(coerce(Value::Float(4.5), DataType::Int), Value::Null);
        assert_eq!(coerce(Value::Float(2.5), DataType::Str), Value::str("2.5"));
        // Whole floats outside i64 range (and non-finite values) must become
        // NULL, not saturate to i64::MAX/MIN.
        assert_eq!(coerce(Value::Float(1e19), DataType::Int), Value::Null);
        assert_eq!(coerce(Value::Float(-1e19), DataType::Int), Value::Null);
        assert_eq!(
            coerce(Value::Float(f64::INFINITY), DataType::Int),
            Value::Null
        );
        assert_eq!(coerce(Value::Float(f64::NAN), DataType::Int), Value::Null);
        // A mismatched non-Str value never leaks through the final guard.
        assert_eq!(coerce(Value::Int(1), DataType::Bool), Value::Null);
    }

    #[test]
    fn unparseable_answers_produce_a_typed_null_column() {
        // End to end: a Str answer ("yes"/"no") under a declared Int result
        // type yields NULLs and a genuinely Int-typed column.
        let out = apply_visual_qa(
            &joined_table(),
            &image_store(),
            model(&VisualQaModel::new()),
            "image",
            "madonna_depicted",
            "Is Madonna depicted?",
            DataType::Int,
        )
        .1
        .unwrap();
        assert_eq!(out.value(0, "madonna_depicted").unwrap(), Value::Null);
        assert_eq!(out.value(1, "madonna_depicted").unwrap(), Value::Null);
    }

    #[test]
    fn template_placeholder_extraction() {
        assert_eq!(
            template_placeholders("How many points did <name> score in <game_id>?"),
            vec!["name", "game_id"]
        );
        assert!(template_placeholders("no placeholders").is_empty());
    }

    #[test]
    fn literal_angle_brackets_are_not_placeholders() {
        // Regression: a literal '<' used to swallow everything up to the next
        // '>' ("is score < 5 for <name>?" yielded the bogus placeholder
        // " 5 for <name" and rejected a valid template).
        assert_eq!(
            template_placeholders("is score < 5 for <name>?"),
            vec!["name"]
        );
        assert_eq!(
            template_placeholders("is 3 < 5 and 7 > 5?"),
            Vec::<String>::new()
        );
        assert_eq!(
            template_placeholders("a <b> c <not a column> d <col_2>"),
            vec!["b", "col_2"]
        );
        assert!(template_placeholders("dangling < bracket").is_empty());
    }

    /// The questions a template renders for every row of `table`.
    fn rendered(template: &str, table: &Table) -> Vec<String> {
        let template = QuestionTemplate::compile(template, table.schema()).unwrap();
        let mut question = String::from("left over from the previous row");
        let render = |row| {
            template.render(&row, &mut question);
            question.clone()
        };
        table.rows().map(render).collect()
    }

    /// The row-at-a-time renderer this module used before templates were
    /// compiled (and `tests/property_batch.rs` still uses as its reference):
    /// placeholders substituted one after another into the running question.
    fn sequentially_replaced(template: &str, table: &Table) -> Vec<String> {
        let render = |row: RowRef<'_>| {
            let mut question = template.to_string();
            for placeholder in template_placeholders(template) {
                let idx = table.schema().resolve(&placeholder).unwrap();
                question = question.replace(&format!("<{placeholder}>"), &row.get(idx).to_string());
            }
            question
        };
        table.rows().map(render).collect()
    }

    fn matchups(rows: &[(&str, &str, i64)]) -> Table {
        let schema = Schema::from_pairs(&[
            ("name", DataType::Str),
            ("team", DataType::Str),
            ("points", DataType::Int),
        ]);
        let mut b = TableBuilder::new("matchups", schema);
        for (name, team, points) in rows {
            let row = vec![Value::str(name), Value::str(team), Value::Int(*points)];
            b.push_row(row).unwrap();
        }
        b.build()
    }

    #[test]
    fn cell_values_are_never_expanded_as_placeholders() {
        // Regression: placeholders used to be substituted one after another
        // into the already-substituted question, so the cell "<team>" was
        // expanded a second time into a question nobody wrote.
        let table = matchups(&[("<team>", "Heat", 1), ("Spurs", "<name> & <points>", 2)]);
        let template = "Did <name> beat <team>?";
        assert_eq!(
            rendered(template, &table),
            ["Did <team> beat Heat?", "Did Spurs beat <name> & <points>?"]
        );
        assert_eq!(
            sequentially_replaced(template, &table)[0],
            "Did Heat beat Heat?"
        );
    }

    #[test]
    fn compiled_templates_render_what_sequential_replacement_rendered() {
        // For rows without `<...>` in their values the questions (and with
        // them the dedup and cache keys) are byte-identical to the parent's.
        let table = matchups(&[("Heat", "Spurs", 102), ("a < b", "x > y", -7), ("", "é", 0)]);
        for template in [
            "How many points did <name> score?",
            "Did <name> beat <team>? Did <team> beat <name> by <points>?",
            "<name><team><points>",
            "is <points> < 5 for <name>?",
            "is 3 < 5 and 7 > 5?",
            "a <b c> d <<name>> e <",
            "no placeholders",
            "",
        ] {
            assert_eq!(
                rendered(template, &table),
                sequentially_replaced(template, &table),
                "{template:?}"
            );
        }
    }

    #[test]
    fn literal_comparison_templates_instantiate() {
        let out = apply_text_qa(
            &reports_table(),
            model(&TextQaModel::new()),
            "report",
            "points",
            "How many points did <name> score?",
            DataType::Int,
        )
        .1;
        assert!(out.is_ok());
        // A template with a literal '<' no longer trips placeholder
        // validation (the bogus span is not looked up as a column).
        let err = apply_text_qa(
            &reports_table(),
            model(&TextQaModel::new()),
            "report",
            "flag",
            "is score < 5 for <unknown_column>?",
            DataType::Str,
        )
        .1
        .unwrap_err();
        assert!(err.to_string().contains("unknown_column"));
        assert!(!err.to_string().contains("5 for"));
    }

    #[test]
    fn mistyped_cells_error_with_the_row_index() {
        // A TEXT column that (via the dynamic-typing escape hatch) holds a
        // non-text cell must produce a typed execution error naming the row,
        // not be silently stringified into a model prompt.
        let schema = Schema::from_pairs(&[("name", DataType::Str), ("report", DataType::Text)]);
        let mut b = TableBuilder::new("t", schema);
        b.push_row(vec![
            Value::str("Heat"),
            Value::text("The Spurs defeated the Heat 110-102."),
        ])
        .unwrap();
        b.push_row(vec![Value::str("Spurs"), Value::Int(7)])
            .unwrap();
        let err = apply_text_qa(
            &b.build(),
            model(&TextQaModel::new()),
            "report",
            "won",
            "Did <name> win?",
            DataType::Str,
        )
        .1
        .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("row 1"), "got: {message}");
        assert!(message.contains("report"), "got: {message}");

        let schema = Schema::from_pairs(&[("image", DataType::Image)]);
        let mut b = TableBuilder::new("t", schema);
        b.push_row(vec![Value::image("img/1.png")]).unwrap();
        b.push_row(vec![Value::str("not-an-image")]).unwrap();
        let images = b.build();
        let err = apply_visual_qa(
            &images,
            &image_store(),
            model(&VisualQaModel::new()),
            "image",
            "n",
            "How many swords are depicted?",
            DataType::Int,
        )
        .1
        .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("row 1"), "got: {message}");

        let err = apply_image_select(
            &images,
            &image_store(),
            model(&ImageSelectModel::new()),
            "image",
            "paintings depicting swords",
        )
        .1
        .unwrap_err();
        assert!(err.to_string().contains("row 1"), "got: {err}");
    }

    #[test]
    fn null_inputs_stay_null_without_model_calls() {
        let schema = Schema::from_pairs(&[("name", DataType::Str), ("report", DataType::Text)]);
        let mut b = TableBuilder::new("t", schema);
        b.push_row(vec![Value::str("Heat"), Value::Null]).unwrap();
        b.push_row(vec![
            Value::str("Spurs"),
            Value::text("The Spurs defeated the Heat 110-102."),
        ])
        .unwrap();
        let (stats, out) = apply_text_qa(
            &b.build(),
            Perception {
                backend: &TextQaModel::new(),
                batch: BatchConfig::new(8),
                cache: None,
            },
            "report",
            "won",
            "Did <name> win?",
            DataType::Str,
        );
        let out = out.unwrap();
        assert_eq!(out.value(0, "won").unwrap(), Value::Null);
        assert_eq!(out.value(1, "won").unwrap(), Value::str("yes"));
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.null_rows, 1);
        assert_eq!(stats.unique_requests, 1);
    }

    /// Documents are identified by their text, not by their allocation: two
    /// cells holding equal text in different `Arc`s are one request and one
    /// cache entry, although each allocation is hashed on its own.
    #[test]
    fn equal_documents_in_two_allocations_share_one_request_and_one_entry() {
        let schema = Schema::from_pairs(&[("name", DataType::Str), ("report", DataType::Text)]);
        let mut b = TableBuilder::new("t", schema);
        let report = "The Spurs defeated the Heat 110-102.";
        for _ in 0..2 {
            b.push_row(vec![Value::str("Heat"), Value::text(report)])
                .unwrap();
        }
        let table = b.build();
        let (Value::Text(first), Value::Text(second)) = (
            table.value(0, "report").unwrap(),
            table.value(1, "report").unwrap(),
        ) else {
            panic!("TEXT cells");
        };
        assert!(!Arc::ptr_eq(&first, &second), "two allocations");
        let cache = PerceptionCache::with_capacity(8);
        let run = || {
            let perception = Perception {
                backend: &TextQaModel::new(),
                batch: BatchConfig::new(8),
                cache: Some(&cache),
            };
            let template = "Did <name> win?";
            apply_text_qa(&table, perception, "report", "won", template, DataType::Str)
        };
        let (cold, out) = run();
        assert_eq!(out.unwrap().value(1, "won").unwrap(), Value::str("no"));
        assert_eq!((cold.unique_requests, cold.saved_calls), (1, 1));
        assert_eq!(cold.cache_misses, 1);
        let (warm, _) = run();
        assert_eq!((warm.cache_hits, warm.cache_misses), (1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn duplicate_rows_are_deduplicated_in_stats() {
        // Two rows share the same report; the constant question dedups to
        // one model call.
        let (stats, out) = apply_text_qa(
            &reports_table(),
            Perception {
                backend: &TextQaModel::new(),
                batch: BatchConfig::new(8),
                cache: None,
            },
            "report",
            "spurs_won",
            "Did Spurs win?",
            DataType::Str,
        );
        let out = out.unwrap();
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.unique_requests, 1);
        assert_eq!(stats.saved_calls, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(
            out.value(0, "spurs_won").unwrap(),
            out.value(1, "spurs_won").unwrap()
        );
    }
}
