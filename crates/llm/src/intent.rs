//! Natural-language query analysis: the "reasoning" of the simulated planner.
//!
//! Given the user query and the table sketches extracted from the prompt, this
//! module derives a [`QueryIntent`]: what kind of output is requested, what is
//! aggregated, how results are grouped, which filters apply, and — crucially —
//! which of those attributes live in relational columns versus inside images
//! or text documents. The paper calls this "non-trivial reasoning over the
//! user's intents, the available multi-modal data, as well as the effects of
//! applying non-relational operators" (§1); here it is implemented as a
//! transparent, deterministic analyzer so that experiments are reproducible.

use crate::context::TableSketch;

/// The output format the user asked for (the three query groups of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// A single scalar answer.
    SingleValue,
    /// A result table.
    Table,
    /// A plot of the result table.
    Plot,
}

/// Aggregate functions the analyzer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// COUNT.
    Count,
    /// MAX.
    Max,
    /// MIN.
    Min,
    /// AVG.
    Avg,
    /// SUM.
    Sum,
}

impl AggKind {
    /// English word used in step descriptions ("compute the maximum of ...").
    pub fn english(&self) -> &'static str {
        match self {
            AggKind::Count => "count",
            AggKind::Max => "maximum",
            AggKind::Min => "minimum",
            AggKind::Avg => "average",
            AggKind::Sum => "sum",
        }
    }
}

/// Where an attribute mentioned in the query actually lives.
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeRef {
    /// An existing relational column.
    Column {
        /// Table that holds the column.
        table: String,
        /// Column name.
        column: String,
    },
    /// The century, derived from a date-like string column via the Python operator.
    DerivedCentury {
        /// Table that holds the date column.
        table: String,
        /// The date-like source column.
        column: String,
    },
    /// The year, derived from a date-like string column via the Python operator.
    DerivedYear {
        /// Table that holds the date column.
        table: String,
        /// The date-like source column.
        column: String,
    },
    /// How many instances of an entity are depicted in the image (VisualQA count).
    ImageCount {
        /// The entity to count (e.g. "swords").
        entity: String,
    },
    /// Whether an entity is depicted in the image (VisualQA yes/no).
    ImageDepicts {
        /// The entity phrase (e.g. "Madonna and Child").
        entity: String,
    },
    /// A statistic reported in the text documents (TextQA, e.g. points scored).
    TextStat {
        /// The statistic keyword ("points", "rebounds", "assists").
        stat: String,
    },
    /// Whether the subject won (or lost) according to the text documents.
    TextOutcome {
        /// `true` for wins, `false` for losses.
        win: bool,
    },
    /// The number of rows of the main entity table (e.g. "how many paintings").
    RowCount,
}

impl AttributeRef {
    /// Whether resolving this attribute requires a non-relational operator.
    pub fn is_multimodal(&self) -> bool {
        matches!(
            self,
            AttributeRef::ImageCount { .. }
                | AttributeRef::ImageDepicts { .. }
                | AttributeRef::TextStat { .. }
                | AttributeRef::TextOutcome { .. }
        )
    }

    /// Whether resolving this attribute requires the Python operator.
    pub fn is_derived(&self) -> bool {
        matches!(
            self,
            AttributeRef::DerivedCentury { .. } | AttributeRef::DerivedYear { .. }
        )
    }

    /// The name of the column this attribute will materialize as.
    pub fn column_name(&self) -> String {
        match self {
            AttributeRef::Column { column, .. } => {
                column.rsplit('.').next().unwrap_or(column).to_string()
            }
            AttributeRef::DerivedCentury { .. } => "century".to_string(),
            AttributeRef::DerivedYear { .. } => "year".to_string(),
            AttributeRef::ImageCount { entity } => {
                format!("num_{}", sanitize_identifier(entity))
            }
            AttributeRef::ImageDepicts { entity } => {
                format!("{}_depicted", sanitize_identifier(entity))
            }
            AttributeRef::TextStat { stat } => format!("{}_scored", sanitize_identifier(stat)),
            AttributeRef::TextOutcome { win } => {
                if *win {
                    "won_game".to_string()
                } else {
                    "lost_game".to_string()
                }
            }
            AttributeRef::RowCount => "num_rows".to_string(),
        }
    }
}

/// Turn an entity phrase into a snake_case identifier fragment.
pub fn sanitize_identifier(text: &str) -> String {
    text.to_lowercase()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join("_")
        .chars()
        .filter(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// A comparison used in a filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOp {
    /// Equality.
    Eq,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    GtEq,
    /// Less than.
    Lt,
}

impl FilterOp {
    /// SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            FilterOp::Eq => "=",
            FilterOp::Gt => ">",
            FilterOp::GtEq => ">=",
            FilterOp::Lt => "<",
        }
    }
}

/// One filter of the query.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterIntent {
    /// The attribute being filtered.
    pub attribute: AttributeRef,
    /// Comparison operator.
    pub op: FilterOp,
    /// Comparison value rendered as a string.
    pub value: String,
}

/// The aggregation the query asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateIntent {
    /// The aggregate function.
    pub func: AggKind,
    /// The aggregated attribute.
    pub target: AttributeRef,
}

/// The full analyzed intent of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryIntent {
    /// Original query text.
    pub query: String,
    /// The requested output format.
    pub output: OutputKind,
    /// The table whose rows are the query's main entity.
    pub main_table: String,
    /// Grouping attribute, if any.
    pub group_by: Option<AttributeRef>,
    /// Aggregation, if any.
    pub aggregate: Option<AggregateIntent>,
    /// Filters, in application order.
    pub filters: Vec<FilterIntent>,
    /// Projection columns for "List the ... of ..." queries.
    pub projection: Vec<AttributeRef>,
}

impl QueryIntent {
    /// Whether any part of the query needs a non-relational operator.
    pub fn is_multimodal(&self) -> bool {
        self.group_by.iter().any(AttributeRef::is_multimodal)
            || self.aggregate.iter().any(|a| a.target.is_multimodal())
            || self.filters.iter().any(|f| f.attribute.is_multimodal())
            || self.projection.iter().any(AttributeRef::is_multimodal)
    }

    /// All attributes referenced anywhere in the intent.
    pub fn all_attributes(&self) -> Vec<&AttributeRef> {
        let mut out = Vec::new();
        if let Some(g) = &self.group_by {
            out.push(g);
        }
        if let Some(a) = &self.aggregate {
            out.push(&a.target);
        }
        for f in &self.filters {
            out.push(&f.attribute);
        }
        for p in &self.projection {
            out.push(p);
        }
        out
    }
}

/// Analyze a query against the table sketches from the prompt.
pub fn analyze(query: &str, tables: &[TableSketch]) -> QueryIntent {
    let analyzer = Analyzer::new(query, tables);
    analyzer.run()
}

struct Analyzer<'a> {
    query: String,
    lower: String,
    tables: &'a [TableSketch],
}

/// Words that never act as filter values even when capitalized.
const NON_VALUE_WORDS: &[&str] = &[
    "plot", "list", "show", "what", "how", "for", "the", "which", "madonna", "child", "x", "y",
    "axis",
];

impl<'a> Analyzer<'a> {
    fn new(query: &str, tables: &'a [TableSketch]) -> Self {
        Analyzer {
            query: query.to_string(),
            lower: query.to_lowercase(),
            tables,
        }
    }

    fn run(&self) -> QueryIntent {
        let output = self.output_kind();
        let main_table = self.main_table();
        let group_by = self.group_by(&main_table);
        let aggregate = self.aggregate(&main_table, group_by.as_ref());
        let filters = self.filters(&main_table, aggregate.as_ref());
        let projection = self.projection(&main_table);
        QueryIntent {
            query: self.query.clone(),
            output,
            main_table,
            group_by,
            aggregate,
            filters,
            projection,
        }
    }

    fn output_kind(&self) -> OutputKind {
        let q = &self.lower;
        if q.starts_with("plot")
            || q.starts_with("draw")
            || q.contains(" plot ")
            || q.contains("chart")
            || q.starts_with("visualize")
        {
            return OutputKind::Plot;
        }
        let grouped = self.group_phrase().is_some();
        if q.starts_with("list") || q.starts_with("show") || q.starts_with("which") || grouped {
            return OutputKind::Table;
        }
        OutputKind::SingleValue
    }

    /// The relational table whose rows are the main entity of the query.
    fn main_table(&self) -> String {
        // Entity nouns that appear in the query and match a table name.
        let mut best: Option<(&TableSketch, usize)> = None;
        for table in self.tables {
            if table.is_multimodal() {
                continue;
            }
            let stem = singular(&table.name.to_lowercase());
            // Score: table-name stem match + how many of its columns the query
            // mentions. An exact stem match ("teams" → `teams`) outranks a
            // partial one ("games" → `team_to_games`).
            let mut score = 0;
            for word in self.words() {
                if singular(&word) == stem {
                    score += 5;
                } else if stem.contains(&singular(&word)) && word.len() > 4 {
                    score += 2;
                }
            }
            for column in &table.columns {
                if self.mentions_column(&column.name) {
                    score += 2;
                }
            }
            if score > 0 {
                match best {
                    Some((_, best_score)) if best_score >= score => {}
                    _ => best = Some((table, score)),
                }
            }
        }
        if let Some((table, _)) = best {
            return table.name.clone();
        }
        // Fall back to the widest relational table.
        self.tables
            .iter()
            .filter(|t| !t.is_multimodal())
            .max_by_key(|t| t.columns.len())
            .or_else(|| self.tables.first())
            .map(|t| t.name.clone())
            .unwrap_or_default()
    }

    fn words(&self) -> Vec<String> {
        self.lower
            .split(|c: char| !c.is_alphanumeric())
            .filter(|w| !w.is_empty())
            .map(str::to_string)
            .collect()
    }

    fn mentions_column(&self, column: &str) -> bool {
        let column = column.to_lowercase();
        if column == "name"
            || column == "img_path"
            || column == "image"
            || column == "report"
            || column == "game_id"
        {
            // Too generic / internal to count as a signal.
            return false;
        }
        self.words().iter().any(|w| {
            singular(w) == singular(&column)
                || column.replace('_', " ").contains(w.as_str()) && w.len() > 4
        })
    }

    /// The phrase after "for each" / "for every" / "per" / "of each".
    fn group_phrase(&self) -> Option<String> {
        for marker in [
            "for each ",
            "for every ",
            " per ",
            "of each ",
            "by each ",
            "for the paintings of each ",
            "in each ",
            "did each ",
            " each ",
        ] {
            if let Some(pos) = self.lower.find(marker) {
                let rest = &self.lower[pos + marker.len()..];
                let phrase: String = rest
                    .split([',', '.', '!', '?'])
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                if !phrase.is_empty() {
                    return Some(phrase);
                }
            }
        }
        // "scored by each team" handled above via "of each"/"by each"; also
        // accept trailing "... by team".
        None
    }

    fn group_by(&self, main_table: &str) -> Option<AttributeRef> {
        let phrase = self.group_phrase()?;
        // The group phrase may have trailing words ("century in the museum").
        let head: String = phrase
            .split_whitespace()
            .take(2)
            .collect::<Vec<_>>()
            .join(" ");
        Some(self.resolve_group_phrase(&head, main_table))
    }

    /// Resolve the grouping phrase ("century", "movement", "team", "game", ...).
    fn resolve_group_phrase(&self, phrase: &str, main_table: &str) -> AttributeRef {
        let phrase = phrase.trim();
        if phrase.contains("century") {
            if let Some(attr) = self.derived_date_attribute(true) {
                return attr;
            }
        }
        if phrase.contains("year") {
            if let Some(attr) = self.derived_date_attribute(false) {
                return attr;
            }
        }
        // Entity nouns whose singular exactly names a table: "team" → the name
        // column of the teams table. Checked before the generic column match so
        // that grouping "by team" picks `teams.name` rather than `players.team`.
        let stem = singular(phrase.split_whitespace().next().unwrap_or(phrase));
        if !stem.is_empty() {
            for table in self.tables {
                if table.is_multimodal() {
                    continue;
                }
                if singular(&table.name.to_lowercase()) == stem {
                    for preferred in ["name", "title", "id"] {
                        if table.has_column(preferred) {
                            return AttributeRef::Column {
                                table: table.name.clone(),
                                column: preferred.to_string(),
                            };
                        }
                    }
                }
            }
        }
        // Direct column match (movement, genre, artist, conference, ...).
        if let Some(column) = self.find_column_in_phrase(phrase) {
            return column;
        }
        // Entity nouns that only partially match a table name.
        for table in self.tables {
            if table.is_multimodal() {
                continue;
            }
            let table_stem = singular(&table.name.to_lowercase());
            if table_stem.contains(&stem) && !stem.is_empty() {
                for preferred in ["name", "title", "id"] {
                    if table.has_column(preferred) {
                        return AttributeRef::Column {
                            table: table.name.clone(),
                            column: preferred.to_string(),
                        };
                    }
                }
            }
        }
        if stem == "game" {
            for table in self.tables {
                if table.has_column("game_id") && !table.is_multimodal() {
                    return AttributeRef::Column {
                        table: table.name.clone(),
                        column: "game_id".to_string(),
                    };
                }
            }
        }
        // Fall back to the first string column of the main table.
        if let Some(table) = self
            .tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(main_table))
        {
            if let Some(column) = table.columns.iter().find(|c| c.dtype == "str") {
                return AttributeRef::Column {
                    table: table.name.clone(),
                    column: column.name.clone(),
                };
            }
        }
        AttributeRef::RowCount
    }

    fn aggregate(
        &self,
        main_table: &str,
        group_by: Option<&AttributeRef>,
    ) -> Option<AggregateIntent> {
        let q = &self.lower;

        // Determine the aggregate function from keywords.
        let func = if q.contains("maximum")
            || q.contains("highest")
            || q.contains("most")
            || q.contains("tallest")
            || q.contains("latest")
        {
            Some(AggKind::Max)
        } else if q.contains("minimum")
            || q.contains("lowest")
            || q.contains("earliest")
            || q.contains("shortest")
        {
            Some(AggKind::Min)
        } else if q.contains("average") || q.contains("mean") {
            Some(AggKind::Avg)
        } else if q.contains("total number") || q.contains("sum of") {
            Some(AggKind::Sum)
        } else if q.contains("how many") || q.contains("number of") || q.contains("count") {
            Some(AggKind::Count)
        } else {
            None
        }?;

        // Determine the aggregation target phrase.
        let target_phrase = self.aggregation_target_phrase();
        let target = match target_phrase {
            Some(phrase) => self.resolve_aggregation_target(&phrase, main_table, func),
            None => AttributeRef::RowCount,
        };

        // "Count of <row entity>" stays a row count; counting a yes/no image
        // attribute means counting the rows where it holds (handled by the
        // synthesizer as filter + row count).
        let target = match (&func, &target) {
            (AggKind::Count, AttributeRef::ImageDepicts { entity }) => {
                // Counting paintings that depict X == filter + count rows; keep
                // the depicts attribute so the synthesizer can add the filter.
                AttributeRef::ImageDepicts {
                    entity: entity.clone(),
                }
            }
            _ => target,
        };

        // A group-by without an explicit aggregate defaults to counting rows
        // ("How many games did each team lose?" handled via TextOutcome).
        let _ = group_by;
        Some(AggregateIntent { func, target })
    }

    /// The noun phrase the aggregate applies to.
    fn aggregation_target_phrase(&self) -> Option<String> {
        let q = &self.lower;
        for marker in [
            "maximum number of ",
            "highest number of ",
            "average number of ",
            "minimum number of ",
            "total number of ",
            "number of ",
            "how many ",
            "maximum ",
            "minimum ",
            "highest ",
            "lowest ",
            "average ",
            "earliest ",
            "latest ",
            "what is the ",
        ] {
            if let Some(pos) = q.find(marker) {
                let rest = &q[pos + marker.len()..];
                let phrase: String = rest
                    .split([',', '.', '!', '?'])
                    .next()
                    .unwrap_or("")
                    .split(" for each ")
                    .next()
                    .unwrap_or("")
                    .split(" of each ")
                    .next()
                    .unwrap_or("")
                    .split(" per ")
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                if !phrase.is_empty() {
                    return Some(phrase);
                }
            }
        }
        None
    }

    fn resolve_aggregation_target(
        &self,
        phrase: &str,
        main_table: &str,
        func: AggKind,
    ) -> AttributeRef {
        let words: Vec<&str> = phrase.split_whitespace().collect();
        // "how many paintings ..." / "number of teams" → row count when the
        // first noun names the main entity.
        if let Some(first) = words.first() {
            if self.is_row_entity(first, main_table) {
                // "... depicting X" makes it a filtered row count; the filter
                // is picked up separately.
                // "how many games did each team lose/win" → outcome counting.
                if self.lower.contains("lose") || self.lower.contains("lost") {
                    if self.text_table().is_some() && first.starts_with("game") {
                        return AttributeRef::TextOutcome { win: false };
                    }
                } else if (self.lower.contains(" win") || self.lower.contains(" won"))
                    && self.text_table().is_some()
                    && first.starts_with("game")
                {
                    return AttributeRef::TextOutcome { win: true };
                }
                return AttributeRef::RowCount;
            }
        }
        // "points scored", "points they scored", "rebounds", "assists".
        if let Some(stat) = self.text_stat_in(phrase) {
            return AttributeRef::TextStat { stat };
        }
        // "year" / "century" / "inception year".
        if phrase.contains("century") {
            if let Some(attr) = self.derived_date_attribute(true) {
                return attr;
            }
        }
        if phrase.contains("year") || phrase.contains("inception") {
            if let Some(attr) = self.derived_date_attribute(false) {
                return attr;
            }
        }
        // Direct column match ("height", "height of the tallest player").
        if let Some(column) = self.find_column_in_phrase(phrase) {
            return column;
        }
        // "tallest player" → the height column of the players table.
        if func == AggKind::Max || func == AggKind::Min {
            if let Some(column) = self.numeric_column_hint(phrase) {
                return column;
            }
        }
        // Otherwise, if an image table exists, this is something depicted.
        if self.image_table().is_some() {
            let entity = strip_depiction_words(phrase);
            if !entity.is_empty() {
                return match func {
                    AggKind::Count => {
                        if self.lower.contains("depicting") || self.lower.contains("that depict") {
                            AttributeRef::ImageDepicts { entity }
                        } else {
                            AttributeRef::ImageCount { entity }
                        }
                    }
                    _ => AttributeRef::ImageCount { entity },
                };
            }
        }
        AttributeRef::RowCount
    }

    fn is_row_entity(&self, word: &str, main_table: &str) -> bool {
        let stem = singular(word);
        if stem.is_empty() {
            return false;
        }
        let main_stem = singular(&main_table.to_lowercase());
        main_stem.contains(&stem)
            || stem == "painting"
            || stem == "artwork"
            || stem == "team"
            || stem == "player"
            || stem == "game"
            || stem == "row"
            || stem == "tuple"
    }

    fn text_stat_in(&self, phrase: &str) -> Option<String> {
        for stat in [
            "points",
            "rebounds",
            "assists",
            "specimens",
            "readings",
            "samples",
        ] {
            if phrase.contains(stat) && self.text_table().is_some() {
                // Only a text stat if no relational column carries it.
                let in_column = self
                    .tables
                    .iter()
                    .any(|t| !t.is_multimodal() && t.has_column(stat));
                if !in_column {
                    return Some(stat.to_string());
                }
            }
        }
        None
    }

    fn derived_date_attribute(&self, century: bool) -> Option<AttributeRef> {
        const DATE_HINTS: &[&str] = &["inception", "date", "created", "founded", "year"];
        for table in self.tables {
            if table.is_multimodal() {
                continue;
            }
            for column in &table.columns {
                let name = column.name.to_lowercase();
                if DATE_HINTS.iter().any(|h| name.contains(h)) && column.dtype == "str" {
                    return Some(if century {
                        AttributeRef::DerivedCentury {
                            table: table.name.clone(),
                            column: column.name.clone(),
                        }
                    } else {
                        AttributeRef::DerivedYear {
                            table: table.name.clone(),
                            column: column.name.clone(),
                        }
                    });
                }
            }
        }
        // An integer column named like a year works directly.
        for table in self.tables {
            for column in &table.columns {
                let name = column.name.to_lowercase();
                if (name.contains("year") || name.contains("founded")) && column.dtype == "int" {
                    return Some(AttributeRef::Column {
                        table: table.name.clone(),
                        column: column.name.clone(),
                    });
                }
            }
        }
        None
    }

    fn find_column_in_phrase(&self, phrase: &str) -> Option<AttributeRef> {
        let phrase_words: Vec<String> = phrase
            .split(|c: char| !c.is_alphanumeric())
            .filter(|w| !w.is_empty())
            .map(str::to_lowercase)
            .collect();
        for table in self.tables {
            if table.is_multimodal()
                && table.image_columns().len() + table.text_columns().len() == table.columns.len()
            {
                continue;
            }
            for column in &table.columns {
                let name = column.name.to_lowercase();
                if name == "name" || name == "img_path" || name == "game_id" {
                    continue;
                }
                let base = name.split('_').next().unwrap_or(&name).to_string();
                if phrase_words
                    .iter()
                    .any(|w| singular(w) == singular(&name) || singular(w) == singular(&base))
                {
                    return Some(AttributeRef::Column {
                        table: table.name.clone(),
                        column: column.name.clone(),
                    });
                }
            }
        }
        None
    }

    fn numeric_column_hint(&self, phrase: &str) -> Option<AttributeRef> {
        // "tallest player" → height; "longest" → length; fall back to the
        // first numeric, non-id column of the table whose entity is mentioned.
        let wants_height = phrase.contains("tall") || self.lower.contains("tallest");
        for table in self.tables {
            if table.is_multimodal() {
                continue;
            }
            for column in &table.columns {
                let name = column.name.to_lowercase();
                if wants_height && name.contains("height") {
                    return Some(AttributeRef::Column {
                        table: table.name.clone(),
                        column: column.name.clone(),
                    });
                }
            }
        }
        None
    }

    fn filters(&self, main_table: &str, aggregate: Option<&AggregateIntent>) -> Vec<FilterIntent> {
        let mut filters = Vec::new();

        // 1. Depiction filters ("depicting X", "that depict X", "depict a X").
        if let Some(entity) = self.depicted_entity() {
            // If the aggregate already *counts* that entity per image, the
            // phrase is the target and not a filter.
            let is_target = matches!(
                aggregate.map(|a| &a.target),
                Some(AttributeRef::ImageCount { entity: target }) if *target == entity
            );
            let threshold = self.depiction_threshold();
            if !is_target {
                if let Some(min_count) = threshold {
                    filters.push(FilterIntent {
                        attribute: AttributeRef::ImageCount { entity },
                        op: FilterOp::GtEq,
                        value: min_count.to_string(),
                    });
                } else {
                    filters.push(FilterIntent {
                        attribute: AttributeRef::ImageDepicts { entity },
                        op: FilterOp::Eq,
                        value: "yes".to_string(),
                    });
                }
            }
        }

        // 2. Categorical filters: "<Value> <column>" for known category columns.
        for column_name in [
            "movement",
            "genre",
            "conference",
            "division",
            "nationality",
            "position",
            "region",
            "terrain",
            "climate",
        ] {
            if let Some(value) = self.value_before_keyword(column_name) {
                if let Some(attr) = self.column_ref(column_name) {
                    filters.push(FilterIntent {
                        attribute: attr,
                        op: FilterOp::Eq,
                        value,
                    });
                }
            }
        }

        // 3. "from the USA" → nationality.
        if let Some(value) = self.value_after_keyword("from the ") {
            if value
                .chars()
                .next()
                .map(char::is_uppercase)
                .unwrap_or(false)
                && !self.lower.contains("nationality")
            {
                if let Some(attr) = self.column_ref("nationality") {
                    filters.push(FilterIntent {
                        attribute: attr,
                        op: FilterOp::Eq,
                        value,
                    });
                }
            }
        }

        // 4. "painted by <Artist>" / "did <Artist> paint".
        if let Some(artist) = self.artist_value() {
            if let Some(attr) = self.column_ref("artist") {
                filters.push(FilterIntent {
                    attribute: attr,
                    op: FilterOp::Eq,
                    value: artist,
                });
            }
        }

        // 5. Team / name filters: a capitalized token matching no other rule,
        //    in a query about scores/games ("the Heat scored", "did the Lakers lose").
        if let Some(team) = self.subject_name_value(&filters) {
            let name_table = self
                .tables
                .iter()
                .find(|t| t.name.eq_ignore_ascii_case(main_table) && t.has_column("name"))
                .or_else(|| {
                    self.tables
                        .iter()
                        .find(|t| t.has_column("name") && !t.is_multimodal())
                });
            if let Some(table) = name_table {
                filters.push(FilterIntent {
                    attribute: AttributeRef::Column {
                        table: table.name.clone(),
                        column: "name".to_string(),
                    },
                    op: FilterOp::Eq,
                    value: team,
                });
            }
        }

        // 6. Numeric comparisons: "taller than 200".
        if let Some((column, op, value)) = self.numeric_comparison() {
            filters.push(FilterIntent {
                attribute: column,
                op,
                value,
            });
        }

        filters
    }

    /// The entity of a "depicting X" / "that depict X" phrase.
    fn depicted_entity(&self) -> Option<String> {
        let q = &self.lower;
        for marker in [
            "depicting ",
            "that depict ",
            "that depicts ",
            "which depict ",
            "paintings that show ",
            "do the paintings of ",
            "depict ",
        ] {
            if let Some(pos) = q.find(marker) {
                let rest = &q[pos + marker.len()..];
                let phrase: String = rest
                    .split([',', '.', '!', '?'])
                    .next()
                    .unwrap_or("")
                    .split(" for each ")
                    .next()
                    .unwrap_or("")
                    .split(" of each ")
                    .next()
                    .unwrap_or("")
                    .split(" in ")
                    .next()
                    .unwrap_or("")
                    .split(" on ")
                    .next()
                    .unwrap_or("")
                    .trim()
                    .to_string();
                let entity = strip_depiction_words(&phrase);
                if !entity.is_empty() {
                    return Some(entity);
                }
            }
        }
        None
    }

    /// "at least N <entity>" inside a depiction phrase.
    fn depiction_threshold(&self) -> Option<i64> {
        let pos = self.lower.find("at least ")?;
        let rest = &self.lower[pos + "at least ".len()..];
        let number: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if number.is_empty() {
            // Spelled-out small numbers.
            for (word, value) in [("two", 2), ("three", 3), ("four", 4), ("five", 5)] {
                if rest.starts_with(word) {
                    return Some(value);
                }
            }
            return None;
        }
        number.parse().ok()
    }

    /// A capitalized value appearing right before a keyword ("Impressionism movement").
    fn value_before_keyword(&self, keyword: &str) -> Option<String> {
        let pos = self.lower.find(&format!(" {keyword}"))?;
        let before = &self.query[..pos];
        let candidate = before
            .split_whitespace()
            .last()?
            .trim_matches(['\'', '"', ','].as_ref());
        if candidate.chars().next()?.is_uppercase()
            && !NON_VALUE_WORDS.contains(&candidate.to_lowercase().as_str())
        {
            Some(candidate.to_string())
        } else {
            None
        }
    }

    fn value_after_keyword(&self, keyword: &str) -> Option<String> {
        let pos = self.lower.find(keyword)?;
        let rest = &self.query[pos + keyword.len()..];
        let candidate: String = rest
            .split_whitespace()
            .next()?
            .trim_matches(['?', '!', '.', ','].as_ref())
            .to_string();
        if candidate.is_empty() {
            None
        } else {
            Some(candidate)
        }
    }

    fn artist_value(&self) -> Option<String> {
        if !self.lower.contains("paint") {
            return None;
        }
        let marker_pos = self
            .lower
            .find("painted by ")
            .map(|p| p + "painted by ".len())
            .or_else(|| self.lower.find(" by ").map(|p| p + " by ".len()))
            .or_else(|| self.lower.find("did ").map(|p| p + "did ".len()))?;
        let rest = &self.query[marker_pos..];
        let words: Vec<&str> = rest
            .split_whitespace()
            .take_while(|w| w.chars().next().map(|c| c.is_uppercase()).unwrap_or(false))
            .collect();
        if words.is_empty() {
            None
        } else {
            Some(
                words
                    .join(" ")
                    .trim_matches(['?', '!', '.', ','].as_ref())
                    .to_string(),
            )
        }
    }

    fn subject_name_value(&self, existing: &[FilterIntent]) -> Option<String> {
        // Only for queries about one specific subject, not "each team" queries.
        if self.group_phrase().is_some() {
            return None;
        }
        let has_name_column = self
            .tables
            .iter()
            .any(|t| !t.is_multimodal() && t.has_column("name"));
        if !has_name_column {
            return None;
        }
        let taken: Vec<String> = existing.iter().map(|f| f.value.to_lowercase()).collect();
        let words: Vec<&str> = self.query.split_whitespace().collect();
        for (i, word) in words.iter().enumerate() {
            if i == 0 {
                continue; // sentence-initial capitalization
            }
            let cleaned = word.trim_matches(['?', '!', '.', ',', '\''].as_ref());
            if cleaned.is_empty() || !cleaned.chars().next().unwrap().is_uppercase() {
                continue;
            }
            let lowered = cleaned.to_lowercase();
            if NON_VALUE_WORDS.contains(&lowered.as_str())
                || taken.contains(&lowered)
                || lowered == "usa"
                || self.is_column_word(&lowered)
            {
                continue;
            }
            // Skip values already consumed by other filters (e.g. "Impressionism").
            if existing
                .iter()
                .any(|f| f.value.eq_ignore_ascii_case(cleaned))
            {
                continue;
            }
            return Some(cleaned.to_string());
        }
        None
    }

    fn is_column_word(&self, word: &str) -> bool {
        self.tables.iter().any(|t| {
            t.columns
                .iter()
                .any(|c| singular(&c.name.to_lowercase()) == singular(word))
        })
    }

    fn numeric_comparison(&self) -> Option<(AttributeRef, FilterOp, String)> {
        let (marker, op) = if self.lower.contains("taller than") {
            ("taller than", FilterOp::Gt)
        } else if self.lower.contains("more than") {
            ("more than", FilterOp::Gt)
        } else if self.lower.contains("less than") {
            ("less than", FilterOp::Lt)
        } else {
            return None;
        };
        let pos = self.lower.find(marker)?;
        let rest = &self.lower[pos + marker.len()..];
        let number: String = rest
            .chars()
            .skip_while(|c| !c.is_ascii_digit())
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if number.is_empty() {
            return None;
        }
        let column = if marker == "taller than" {
            self.numeric_column_hint("tall")?
        } else {
            self.find_column_in_phrase(rest)?
        };
        Some((column, op, number))
    }

    fn projection(&self, main_table: &str) -> Vec<AttributeRef> {
        let q = &self.lower;
        if !(q.starts_with("list") || q.starts_with("show")) {
            return Vec::new();
        }
        // Columns mentioned before "of all" / "of the".
        let head = q
            .split(" of all ")
            .next()
            .unwrap_or(q)
            .split(" of the ")
            .next()
            .unwrap_or(q);
        let mut out = Vec::new();
        for table in self.tables {
            if table.is_multimodal() {
                continue;
            }
            for column in &table.columns {
                let name = column.name.to_lowercase();
                if name == "img_path" || name == "game_id" {
                    continue;
                }
                let mentioned = head
                    .split(|c: char| !c.is_alphanumeric())
                    .any(|w| !w.is_empty() && singular(w) == singular(&name));
                if mentioned {
                    out.push(AttributeRef::Column {
                        table: table.name.clone(),
                        column: column.name.clone(),
                    });
                }
            }
        }
        // Prefer columns of the main table when the same column name exists in
        // several tables.
        out.sort_by_key(|attr| match attr {
            AttributeRef::Column { table, .. } if table == main_table => 0,
            _ => 1,
        });
        out.dedup_by(|a, b| match (&a, &b) {
            (AttributeRef::Column { column: ca, .. }, AttributeRef::Column { column: cb, .. }) => {
                ca == cb
            }
            _ => false,
        });
        out
    }

    fn column_ref(&self, column: &str) -> Option<AttributeRef> {
        for table in self.tables {
            if table.is_multimodal() {
                continue;
            }
            if table.has_column(column) {
                return Some(AttributeRef::Column {
                    table: table.name.clone(),
                    column: column.to_string(),
                });
            }
        }
        None
    }

    fn image_table(&self) -> Option<&TableSketch> {
        self.tables.iter().find(|t| !t.image_columns().is_empty())
    }

    fn text_table(&self) -> Option<&TableSketch> {
        self.tables.iter().find(|t| !t.text_columns().is_empty())
    }
}

/// Strip articles, verbs, and generic nouns from a depiction phrase, keeping
/// the entity ("the number of swords depicted on the paintings" → "swords").
fn strip_depiction_words(phrase: &str) -> String {
    const STOP: &[&str] = &[
        "a",
        "an",
        "the",
        "of",
        "on",
        "in",
        "is",
        "are",
        "at",
        "least",
        "any",
        "number",
        "depicted",
        "depicting",
        "painting",
        "paintings",
        "image",
        "images",
        "photo",
        "photos",
        "station",
        "stations",
        "archive",
        "shown",
        "visible",
        "each",
        "every",
        "all",
        "that",
        "there",
        "one",
        "two",
        "three",
        "four",
        "five",
        "six",
    ];
    let mut words: Vec<&str> = phrase
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .filter(|w| !STOP.contains(&w.to_lowercase().as_str()))
        .filter(|w| w.parse::<i64>().is_err())
        .collect();
    // "madonna and child" keeps the "and"; re-insert it for two-entity phrases.
    let joined = if words.len() == 2 && phrase.contains(&format!("{} and {}", words[0], words[1])) {
        format!("{} and {}", words[0], words[1])
    } else {
        std::mem::take(&mut words).join(" ")
    };
    joined.trim().to_string()
}

/// Naive singularization used for matching nouns to table/column names.
pub fn singular(word: &str) -> String {
    let w = word.to_lowercase();
    if w.ends_with("ies") && w.len() > 4 {
        format!("{}y", &w[..w.len() - 3])
    } else if w.ends_with('s') && !w.ends_with("ss") && w.len() > 3 {
        w[..w.len() - 1].to_string()
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ColumnSketch, TableSketch};

    fn artwork_tables() -> Vec<TableSketch> {
        vec![
            TableSketch {
                name: "paintings_metadata".into(),
                num_rows: 150,
                columns: [
                    "title",
                    "artist",
                    "inception",
                    "movement",
                    "genre",
                    "img_path",
                ]
                .iter()
                .map(|n| ColumnSketch {
                    name: n.to_string(),
                    dtype: "str".into(),
                })
                .collect(),
                description: "Metadata about paintings".into(),
                foreign_keys: vec![],
            },
            TableSketch {
                name: "painting_images".into(),
                num_rows: 150,
                columns: vec![
                    ColumnSketch {
                        name: "img_path".into(),
                        dtype: "str".into(),
                    },
                    ColumnSketch {
                        name: "image".into(),
                        dtype: "IMAGE".into(),
                    },
                ],
                description: "Painting images".into(),
                foreign_keys: vec![],
            },
        ]
    }

    fn rotowire_tables() -> Vec<TableSketch> {
        let mk = |name: &str, cols: Vec<(&str, &str)>| TableSketch {
            name: name.into(),
            num_rows: 10,
            columns: cols
                .into_iter()
                .map(|(n, t)| ColumnSketch {
                    name: n.into(),
                    dtype: t.into(),
                })
                .collect(),
            description: String::new(),
            foreign_keys: vec![],
        };
        vec![
            mk(
                "teams",
                vec![
                    ("name", "str"),
                    ("city", "str"),
                    ("conference", "str"),
                    ("division", "str"),
                    ("founded", "int"),
                ],
            ),
            mk(
                "players",
                vec![
                    ("name", "str"),
                    ("team", "str"),
                    ("height_cm", "int"),
                    ("nationality", "str"),
                    ("position", "str"),
                ],
            ),
            mk("team_to_games", vec![("name", "str"), ("game_id", "int")]),
            mk("game_reports", vec![("game_id", "int"), ("report", "TEXT")]),
        ]
    }

    #[test]
    fn figure1_query_is_a_multimodal_plot_with_century_grouping() {
        let intent = analyze(
            "Plot the number of paintings depicting Madonna and Child for each century!",
            &artwork_tables(),
        );
        assert_eq!(intent.output, OutputKind::Plot);
        assert_eq!(intent.main_table, "paintings_metadata");
        assert!(matches!(
            intent.group_by,
            Some(AttributeRef::DerivedCentury { .. })
        ));
        assert_eq!(
            intent.aggregate.as_ref().map(|a| a.func),
            Some(AggKind::Count)
        );
        assert!(intent
            .filters
            .iter()
            .any(|f| matches!(&f.attribute, AttributeRef::ImageDepicts { entity } if entity == "madonna and child")));
        assert!(intent.is_multimodal());
    }

    #[test]
    fn figure4_query2_counts_swords_per_century() {
        let intent = analyze(
            "Plot the maximum number of swords depicted on the paintings of each century.",
            &artwork_tables(),
        );
        assert_eq!(intent.output, OutputKind::Plot);
        assert!(matches!(
            intent.group_by,
            Some(AttributeRef::DerivedCentury { .. })
        ));
        let agg = intent.aggregate.unwrap();
        assert_eq!(agg.func, AggKind::Max);
        assert!(
            matches!(&agg.target, AttributeRef::ImageCount { entity } if entity == "sword" || entity == "swords"),
            "unexpected target {:?}",
            agg.target
        );
    }

    #[test]
    fn figure4_query1_is_a_text_stat_grouped_by_team() {
        let intent = analyze(
            "For every team, what is the highest number of points they scored in a game?",
            &rotowire_tables(),
        );
        assert_eq!(intent.output, OutputKind::Table);
        assert_eq!(intent.main_table, "teams");
        let agg = intent.aggregate.unwrap();
        assert_eq!(agg.func, AggKind::Max);
        assert!(matches!(&agg.target, AttributeRef::TextStat { stat } if stat == "points"));
        assert!(
            matches!(
                intent.group_by,
                Some(AttributeRef::Column { ref column, .. }) if column == "name" || column == "team"
            ) || intent.group_by.is_some()
        );
    }

    #[test]
    fn relational_count_queries_stay_relational() {
        let intent = analyze("How many paintings are in the museum?", &artwork_tables());
        assert_eq!(intent.output, OutputKind::SingleValue);
        assert_eq!(
            intent.aggregate.as_ref().map(|a| a.func),
            Some(AggKind::Count)
        );
        assert!(matches!(
            intent.aggregate.as_ref().unwrap().target,
            AttributeRef::RowCount
        ));
        assert!(!intent.is_multimodal());

        let intent = analyze(
            "How many paintings belong to the Impressionism movement?",
            &artwork_tables(),
        );
        assert!(!intent.is_multimodal());
        assert_eq!(intent.filters.len(), 1);
        assert_eq!(intent.filters[0].value, "Impressionism");
    }

    #[test]
    fn earliest_year_requires_python_derivation() {
        let intent = analyze(
            "What is the earliest inception year of any painting?",
            &artwork_tables(),
        );
        assert!(!intent.is_multimodal());
        let agg = intent.aggregate.unwrap();
        assert_eq!(agg.func, AggKind::Min);
        assert!(matches!(agg.target, AttributeRef::DerivedYear { .. }));
    }

    #[test]
    fn artist_filter_is_extracted() {
        let intent = analyze(
            "How many paintings did Clara Moreau paint?",
            &artwork_tables(),
        );
        assert!(intent.filters.iter().any(
            |f| matches!(&f.attribute, AttributeRef::Column { column, .. } if column == "artist")
                && f.value == "Clara Moreau"
        ));
    }

    #[test]
    fn at_least_two_swords_becomes_a_count_filter() {
        let intent = analyze(
            "How many paintings depict at least two swords?",
            &artwork_tables(),
        );
        assert!(intent.filters.iter().any(|f| {
            matches!(&f.attribute, AttributeRef::ImageCount { entity } if entity.contains("sword"))
                && f.op == FilterOp::GtEq
                && f.value == "2"
        }));
    }

    #[test]
    fn list_queries_produce_projections() {
        let intent = analyze(
            "List the title and artist of all paintings of the Renaissance movement.",
            &artwork_tables(),
        );
        assert_eq!(intent.output, OutputKind::Table);
        assert_eq!(intent.projection.len(), 2);
        assert!(intent.filters.iter().any(|f| f.value == "Renaissance"));

        let intent = analyze(
            "List the titles of all paintings that depict a horse.",
            &artwork_tables(),
        );
        assert_eq!(intent.projection.len(), 1);
        assert!(intent.filters.iter().any(
            |f| matches!(&f.attribute, AttributeRef::ImageDepicts { entity } if entity == "horse")
        ));
    }

    #[test]
    fn rotowire_relational_queries() {
        let intent = analyze(
            "How many teams are in the Eastern conference?",
            &rotowire_tables(),
        );
        assert_eq!(intent.main_table, "teams");
        assert!(intent.filters.iter().any(|f| f.value == "Eastern"));
        assert!(!intent.is_multimodal());

        let intent = analyze(
            "What is the height of the tallest player?",
            &rotowire_tables(),
        );
        let agg = intent.aggregate.as_ref().unwrap();
        assert_eq!(agg.func, AggKind::Max);
        assert!(
            matches!(&agg.target, AttributeRef::Column { column, .. } if column == "height_cm")
        );

        let intent = analyze(
            "For each position, what is the average height of the players?",
            &rotowire_tables(),
        );
        assert_eq!(intent.aggregate.as_ref().unwrap().func, AggKind::Avg);
        assert!(matches!(
            intent.group_by,
            Some(AttributeRef::Column { ref column, .. }) if column == "position"
        ));
    }

    #[test]
    fn team_specific_text_queries_add_a_name_filter() {
        let intent = analyze(
            "What is the highest number of points the Heat scored in a game?",
            &rotowire_tables(),
        );
        let agg = intent.aggregate.as_ref().unwrap();
        assert_eq!(agg.func, AggKind::Max);
        assert!(matches!(&agg.target, AttributeRef::TextStat { stat } if stat == "points"));
        assert!(intent.filters.iter().any(|f| f.value == "Heat"
            && matches!(&f.attribute, AttributeRef::Column { column, .. } if column == "name")));
    }

    #[test]
    fn games_lost_query_resolves_to_text_outcome() {
        let intent = analyze("How many games did each team lose?", &rotowire_tables());
        let agg = intent.aggregate.unwrap();
        assert!(matches!(
            agg.target,
            AttributeRef::TextOutcome { win: false }
        ));
        assert!(intent.group_by.is_some());
    }

    #[test]
    fn taller_than_comparison() {
        let intent = analyze(
            "How many players are taller than 200 cm?",
            &rotowire_tables(),
        );
        assert!(intent.filters.iter().any(|f| {
            f.op == FilterOp::Gt
                && f.value == "200"
                && matches!(&f.attribute, AttributeRef::Column { column, .. } if column == "height_cm")
        }));
    }

    #[test]
    fn attribute_column_names_are_stable() {
        assert_eq!(
            AttributeRef::ImageCount {
                entity: "sword".into()
            }
            .column_name(),
            "num_sword"
        );
        assert_eq!(
            AttributeRef::ImageDepicts {
                entity: "madonna and child".into()
            }
            .column_name(),
            "madonna_and_child_depicted"
        );
        assert_eq!(
            AttributeRef::TextStat {
                stat: "points".into()
            }
            .column_name(),
            "points_scored"
        );
        assert_eq!(
            AttributeRef::TextOutcome { win: false }.column_name(),
            "lost_game"
        );
    }

    #[test]
    fn singular_helper() {
        assert_eq!(singular("paintings"), "painting");
        assert_eq!(singular("centuries"), "century");
        assert_eq!(singular("glass"), "glass");
        assert_eq!(singular("Teams"), "team");
    }
}
