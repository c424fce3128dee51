//! The Python-UDF substitute: a small, side-effect-free transform DSL.
//!
//! In the paper, the Python operator "takes a description as input, which is
//! translated to code using GPT-4" (Figure 4). This reproduction replaces
//! arbitrary generated Python with a restricted transform language: the
//! description is compiled to a [`TransformProgram`] wrapping a relational
//! [`Expr`] which is evaluated per row to produce one new column. By
//! construction the operator can never mutate or delete data, which matches —
//! and strengthens — the security posture of §5 of the paper.

use crate::error::{ModalError, ModalResult};
#[cfg(test)]
use caesura_engine::Value;
use caesura_engine::{sql::parse_expression, BinaryOp, DataType, Expr, ScalarFunc, Schema, Table};

/// A compiled transformation: one new column computed from existing columns.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformProgram {
    /// The per-row expression.
    pub expr: Expr,
    /// Static type of the produced column.
    pub output_type: DataType,
    /// Pseudo-code rendering shown in traces (plays the role of the generated
    /// Python snippet in Figure 1).
    pub source: String,
}

impl TransformProgram {
    /// Wrap an expression directly.
    pub fn from_expr(expr: Expr, schema: &Schema) -> Self {
        let output_type = expr.output_type(schema);
        let source = format!("row[new] = {expr}");
        TransformProgram {
            expr,
            output_type,
            source,
        }
    }

    /// Apply the program to a table, appending the result as `new_column`.
    /// The expression is evaluated column-at-a-time (vectorized) and the
    /// existing columns are shared with the input.
    pub fn apply(&self, table: &Table, new_column: &str) -> ModalResult<Table> {
        self.expr
            .evaluate_batch(table.schema(), table.columns(), table.num_rows())
            .and_then(|column| table.append_column(new_column, self.output_type, column))
            .map_err(|e| ModalError::TransformRuntime {
                message: e.to_string(),
            })
    }

    /// Encode the program for the durable cache tier: the expression's SQL
    /// rendering (re-parsed on decode) plus the trace `source` string.
    /// Callers must round-trip through [`Self::from_cache_bytes`] before
    /// persisting — see `apply_python_udf` — so only programs whose
    /// rendering re-parses to the identical program are ever stored.
    pub fn cache_bytes(&self) -> Vec<u8> {
        let expr = self.expr.to_string();
        let mut out = Vec::with_capacity(4 + expr.len() + self.source.len());
        caesura_store::push_part(&mut out, expr.as_bytes());
        out.extend_from_slice(self.source.as_bytes());
        out
    }

    /// Decode a program stored by [`Self::cache_bytes`] against the table
    /// schema it is about to run over. Returns `None` for malformed bytes,
    /// expressions the SQL parser rejects, or expressions referencing columns
    /// the schema no longer has — a decode failure simply falls back to a
    /// fresh compile.
    pub fn from_cache_bytes(bytes: &[u8], schema: &Schema) -> Option<Self> {
        let mut rest = bytes;
        let expr_text = std::str::from_utf8(caesura_store::take_part(&mut rest)?).ok()?;
        let source = std::str::from_utf8(rest).ok()?;
        let expr = parse_expression(expr_text).ok()?;
        let columns = expr.referenced_columns();
        if columns.is_empty() || !columns.iter().all(|c| schema.contains(c)) {
            return None;
        }
        let mut program = TransformProgram::from_expr(expr, schema);
        program.source = source.to_string();
        Some(program)
    }
}

/// The simulated "description → code" generator.
///
/// It recognizes the transformation descriptions CAESURA's planner produces
/// (century extraction, year extraction, parsing, simple arithmetic, casing,
/// yes/no encoding, column differences) and also accepts descriptions that are
/// already valid expressions.
#[derive(Debug, Clone, Default)]
pub struct TransformCodegen;

impl TransformCodegen {
    /// Create a code generator.
    pub fn new() -> Self {
        TransformCodegen
    }

    /// Compile a natural-language description into a program over `schema`.
    pub fn compile(&self, description: &str, schema: &Schema) -> ModalResult<TransformProgram> {
        let desc = description.trim();
        let lower = desc.to_lowercase();
        let fail = |reason: &str| {
            Err(ModalError::TransformCompile {
                description: description.to_string(),
                reason: reason.to_string(),
            })
        };

        if desc.is_empty() {
            return fail("the description is empty");
        }

        // 1. The description may already be a valid expression
        //    (e.g. "CENTURY(inception)" or "points / 2").
        if let Ok(expr) = parse_expression(desc) {
            if expr.referenced_columns().iter().all(|c| schema.contains(c))
                && !expr.referenced_columns().is_empty()
            {
                return Ok(TransformProgram::from_expr(expr, schema));
            }
        }

        let source_column = self.find_column(&lower, schema);

        // 2. Century extraction ("Extract the century from the dates ...").
        if lower.contains("century") {
            let column = match source_column {
                Some(c) => c,
                None => match self.find_date_like_column(schema) {
                    Some(c) => c,
                    None => return fail("could not identify which column holds the dates"),
                },
            };
            let expr = Expr::Func {
                func: ScalarFunc::Century,
                args: vec![Expr::col(column.clone())],
            };
            let mut program = TransformProgram::from_expr(expr, schema);
            program.source = format!("row[new] = century_of(row['{column}'])");
            return Ok(program);
        }

        // 3. Year extraction.
        if lower.contains("year") && (lower.contains("extract") || lower.contains("parse")) {
            let column = match source_column.or_else(|| self.find_date_like_column(schema)) {
                Some(c) => c,
                None => return fail("could not identify which column holds the dates"),
            };
            let expr = Expr::Func {
                func: ScalarFunc::ExtractYear,
                args: vec![Expr::col(column)],
            };
            return Ok(TransformProgram::from_expr(expr, schema));
        }

        // 4. yes/no → 1/0 encoding ("Convert the yes/no answers to numbers").
        if (lower.contains("yes") && lower.contains("no"))
            || lower.contains("boolean to number")
            || lower.contains("binary")
        {
            let column = match source_column {
                Some(c) => c,
                None => return fail("could not identify which yes/no column to encode"),
            };
            let expr = Expr::Case {
                branches: vec![(Expr::col(column.clone()).eq(Expr::lit("yes")), Expr::lit(1))],
                otherwise: Some(Box::new(Expr::lit(0))),
            };
            return Ok(TransformProgram::from_expr(expr, schema));
        }

        // 5. Simple arithmetic with a constant:
        //    "divide the <col> by 100", "multiply <col> by 2", "add 5 to <col>".
        if let Some(program) = self.compile_arithmetic(&lower, source_column.as_deref(), schema) {
            return Ok(program);
        }

        // 6. Difference between two columns.
        if lower.contains("difference between") {
            let columns = self.find_all_columns(&lower, schema);
            if columns.len() >= 2 {
                let expr = Expr::binary(
                    Expr::col(columns[0].clone()),
                    BinaryOp::Sub,
                    Expr::col(columns[1].clone()),
                );
                return Ok(TransformProgram::from_expr(expr, schema));
            }
            return fail("could not identify the two columns to subtract");
        }

        // 7. Casing / length transformations.
        if let Some(column) = &source_column {
            for (keyword, func) in [
                ("lowercase", ScalarFunc::Lower),
                ("lower case", ScalarFunc::Lower),
                ("uppercase", ScalarFunc::Upper),
                ("upper case", ScalarFunc::Upper),
                ("length", ScalarFunc::Length),
                ("number of characters", ScalarFunc::Length),
            ] {
                if lower.contains(keyword) {
                    let expr = Expr::Func {
                        func,
                        args: vec![Expr::col(column.clone())],
                    };
                    return Ok(TransformProgram::from_expr(expr, schema));
                }
            }
            // 8. Integer parsing ("parse the <col> as a number").
            if lower.contains("number") || lower.contains("integer") || lower.contains("parse") {
                let expr = Expr::Func {
                    func: ScalarFunc::CastInt,
                    args: vec![Expr::col(column.clone())],
                };
                return Ok(TransformProgram::from_expr(expr, schema));
            }
        }

        fail(
            "the description matches no supported transformation \
             (century/year extraction, arithmetic, casing, yes/no encoding, parsing)",
        )
    }

    /// Find the first schema column mentioned in the description (quoted names
    /// take precedence over bare mentions).
    fn find_column(&self, lower_desc: &str, schema: &Schema) -> Option<String> {
        self.find_all_columns(lower_desc, schema).into_iter().next()
    }

    fn find_all_columns(&self, lower_desc: &str, schema: &Schema) -> Vec<String> {
        let mut found: Vec<(usize, String)> = Vec::new();
        for field in schema.fields() {
            let base = field.base_name().to_lowercase();
            if base.is_empty() {
                continue;
            }
            let quoted = format!("'{base}'");
            if let Some(pos) = lower_desc.find(&quoted) {
                found.push((pos, field.name.clone()));
                continue;
            }
            if let Some(pos) = lower_desc.find(&base) {
                found.push((pos, field.name.clone()));
            }
        }
        found.sort_by_key(|(pos, _)| *pos);
        let mut out = Vec::new();
        for (_, name) in found {
            if !out.contains(&name) {
                out.push(name);
            }
        }
        out
    }

    fn find_date_like_column(&self, schema: &Schema) -> Option<String> {
        const DATE_HINTS: &[&str] = &["inception", "date", "year", "created", "time"];
        schema
            .fields()
            .iter()
            .find(|f| {
                let base = f.base_name().to_lowercase();
                f.data_type == DataType::Date || DATE_HINTS.iter().any(|h| base.contains(h))
            })
            .map(|f| f.name.clone())
    }

    fn compile_arithmetic(
        &self,
        lower_desc: &str,
        column: Option<&str>,
        schema: &Schema,
    ) -> Option<TransformProgram> {
        let column = column?;
        let constant = lower_desc
            .split(|c: char| !c.is_ascii_digit() && c != '.')
            .filter(|s| !s.is_empty())
            .find_map(|s| s.parse::<f64>().ok())?;
        let literal = if constant.fract() == 0.0 {
            Expr::lit(constant as i64)
        } else {
            Expr::lit(constant)
        };
        let op = if lower_desc.contains("divid") {
            BinaryOp::Div
        } else if lower_desc.contains("multipl") {
            BinaryOp::Mul
        } else if lower_desc.contains("subtract") {
            BinaryOp::Sub
        } else if lower_desc.contains("add ") || lower_desc.contains("increase") {
            BinaryOp::Add
        } else {
            return None;
        };
        let expr = Expr::binary(Expr::col(column.to_string()), op, literal);
        Some(TransformProgram::from_expr(expr, schema))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesura_engine::TableBuilder;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("title", DataType::Str),
            ("inception", DataType::Str),
            ("madonna_depicted", DataType::Str),
            ("points", DataType::Int),
        ])
    }

    fn table() -> Table {
        let mut b = TableBuilder::new("joined_table", schema());
        b.push_row(vec![
            Value::str("Madonna"),
            Value::str("1889-01-05"),
            Value::str("yes"),
            Value::Int(10),
        ])
        .unwrap();
        b.push_row(vec![
            Value::str("Irises"),
            Value::str("c. 1480"),
            Value::str("no"),
            Value::Int(20),
        ])
        .unwrap();
        b.build()
    }

    #[test]
    fn century_extraction_matches_figure4_step3() {
        let codegen = TransformCodegen::new();
        let program = codegen
            .compile(
                "Extract the century from the dates in the 'inception' column by dividing the year by 100",
                &schema(),
            )
            .unwrap();
        let out = program.apply(&table(), "century").unwrap();
        assert_eq!(out.value(0, "century").unwrap(), Value::Int(19));
        assert_eq!(out.value(1, "century").unwrap(), Value::Int(15));
        assert!(program.source.contains("century_of"));
    }

    #[test]
    fn expression_descriptions_compile_directly() {
        let codegen = TransformCodegen::new();
        let program = codegen.compile("CENTURY(inception)", &schema()).unwrap();
        assert_eq!(program.output_type, DataType::Int);
        let program = codegen.compile("points * 2", &schema()).unwrap();
        let out = program.apply(&table(), "double_points").unwrap();
        assert_eq!(out.value(1, "double_points").unwrap(), Value::Int(40));
    }

    #[test]
    fn yes_no_encoding() {
        let codegen = TransformCodegen::new();
        let program = codegen
            .compile(
                "Convert the yes/no values in the 'madonna_depicted' column to 1 and 0",
                &schema(),
            )
            .unwrap();
        let out = program.apply(&table(), "madonna_flag").unwrap();
        assert_eq!(out.value(0, "madonna_flag").unwrap(), Value::Int(1));
        assert_eq!(out.value(1, "madonna_flag").unwrap(), Value::Int(0));
    }

    #[test]
    fn arithmetic_with_constants() {
        let codegen = TransformCodegen::new();
        let program = codegen
            .compile("Divide the values in the points column by 2", &schema())
            .unwrap();
        let out = program.apply(&table(), "half").unwrap();
        assert_eq!(out.value(0, "half").unwrap(), Value::Int(5));
        let program = codegen
            .compile("Multiply the points by 3", &schema())
            .unwrap();
        let out = program.apply(&table(), "triple").unwrap();
        assert_eq!(out.value(1, "triple").unwrap(), Value::Int(60));
    }

    #[test]
    fn year_extraction_and_parsing() {
        let codegen = TransformCodegen::new();
        let program = codegen
            .compile("Extract the year from the 'inception' column", &schema())
            .unwrap();
        let out = program.apply(&table(), "year").unwrap();
        assert_eq!(out.value(1, "year").unwrap(), Value::Int(1480));
    }

    #[test]
    fn casing_and_length_transformations() {
        let codegen = TransformCodegen::new();
        let program = codegen
            .compile("Convert the 'title' column to lowercase", &schema())
            .unwrap();
        let out = program.apply(&table(), "title_lower").unwrap();
        assert_eq!(out.value(0, "title_lower").unwrap(), Value::str("madonna"));
        let program = codegen
            .compile("Compute the length of the 'title' column", &schema())
            .unwrap();
        let out = program.apply(&table(), "title_len").unwrap();
        assert_eq!(out.value(0, "title_len").unwrap(), Value::Int(7));
    }

    #[test]
    fn unintelligible_descriptions_fail_with_reason() {
        let codegen = TransformCodegen::new();
        let err = codegen
            .compile("Render the painting as a 3D model", &schema())
            .unwrap_err();
        assert!(matches!(err, ModalError::TransformCompile { .. }));
        assert!(err.to_string().contains("no supported transformation"));
        assert!(codegen.compile("", &schema()).is_err());
    }

    #[test]
    fn century_without_an_identifiable_column_falls_back_to_date_like_columns() {
        let codegen = TransformCodegen::new();
        let program = codegen
            .compile("Extract the century from each painting", &schema())
            .unwrap();
        // Picks the `inception` column because of the date hint in its name.
        assert!(program
            .expr
            .referenced_columns()
            .contains(&"inception".to_string()));
    }

    #[test]
    fn difference_between_two_columns() {
        let schema =
            Schema::from_pairs(&[("height_cm", DataType::Int), ("width_cm", DataType::Int)]);
        let codegen = TransformCodegen::new();
        let program = codegen
            .compile(
                "Compute the difference between the 'height_cm' and 'width_cm' columns",
                &schema,
            )
            .unwrap();
        let mut b = TableBuilder::new("t", schema);
        b.push_values::<_, Value>(vec![Value::Int(30), Value::Int(20)])
            .unwrap();
        let out = program.apply(&b.build(), "diff").unwrap();
        assert_eq!(out.value(0, "diff").unwrap(), Value::Int(10));
    }

    #[test]
    fn runtime_failures_are_wrapped() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let program = TransformProgram::from_expr(
            Expr::binary(Expr::col("x"), BinaryOp::Div, Expr::lit(0)),
            &schema,
        );
        let mut b = TableBuilder::new("t", schema);
        b.push_values::<_, Value>(vec![Value::Int(1)]).unwrap();
        let err = program.apply(&b.build(), "boom").unwrap_err();
        assert!(matches!(err, ModalError::TransformRuntime { .. }));
    }

    #[test]
    fn cache_codec_round_trips_every_compile_shape() {
        let codegen = TransformCodegen::new();
        let schema = schema();
        // One description per compile path, including the century path whose
        // custom `source` must survive the round trip, and the yes/no path
        // whose CASE expression exercises the trickiest rendering.
        for description in [
            "CENTURY(inception)",
            "Extract the century from the inception dates",
            "Extract the year from the inception column",
            "Convert the yes/no madonna_depicted answers to numbers",
            "divide the points by 100",
            "difference between points and inception",
            "lowercase the title",
            "parse the inception as a number",
        ] {
            let program = codegen.compile(description, &schema).unwrap();
            let decoded = TransformProgram::from_cache_bytes(&program.cache_bytes(), &schema);
            assert_eq!(decoded.as_ref(), Some(&program), "for: {description}");
        }
    }

    #[test]
    fn cache_codec_rejects_garbage_and_schema_drift() {
        let codegen = TransformCodegen::new();
        let schema = schema();
        let program = codegen.compile("CENTURY(inception)", &schema).unwrap();
        let bytes = program.cache_bytes();
        // Truncation, non-UTF-8, and an unparsable expression all decode to
        // None rather than to a wrong program.
        assert_eq!(
            TransformProgram::from_cache_bytes(&bytes[..3], &schema),
            None
        );
        assert_eq!(TransformProgram::from_cache_bytes(b"", &schema), None);
        let mut flipped = bytes.clone();
        flipped[4] = 0xff;
        assert_eq!(TransformProgram::from_cache_bytes(&flipped, &schema), None);
        // A schema that lost the referenced column rejects the entry.
        let drifted = Schema::from_pairs(&[("title", DataType::Str)]);
        assert_eq!(TransformProgram::from_cache_bytes(&bytes, &drifted), None);
    }
}
