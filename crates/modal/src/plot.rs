//! The plot operator (the seaborn substitute).
//!
//! The paper's plans end in a Plot operator with arguments such as
//! `('bar', 'century', 'max_num_swords')` (Figure 4). This module renders a
//! result table into a [`Plot`]: a structured series plus deterministic text
//! and SVG renderings, which is all the evaluation needs ("the right plot kind
//! with the right axes was produced").

use crate::error::{ModalError, ModalResult};
use caesura_engine::{Table, Value};
use std::fmt;

/// Supported plot kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlotKind {
    /// Bar chart (the paper's examples use `sns.barplot`).
    Bar,
    /// Line chart.
    Line,
    /// Scatter plot.
    Scatter,
}

impl PlotKind {
    /// Parse a kind from the operator argument (`"bar"`, `"line"`, `"scatter"`).
    pub fn from_name(name: &str) -> ModalResult<PlotKind> {
        match name.trim().to_lowercase().as_str() {
            "bar" | "barplot" | "bar chart" => Ok(PlotKind::Bar),
            "line" | "lineplot" | "line chart" => Ok(PlotKind::Line),
            "scatter" | "scatterplot" | "scatter plot" => Ok(PlotKind::Scatter),
            other => Err(ModalError::InvalidPlot {
                message: format!("unknown plot kind '{other}' (expected bar, line, or scatter)"),
            }),
        }
    }

    /// Lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            PlotKind::Bar => "bar",
            PlotKind::Line => "line",
            PlotKind::Scatter => "scatter",
        }
    }
}

/// Specification of the plot to produce.
#[derive(Debug, Clone, PartialEq)]
pub struct PlotSpec {
    /// Plot kind.
    pub kind: PlotKind,
    /// Column providing the X axis / category labels.
    pub x_column: String,
    /// Column providing the Y axis values.
    pub y_column: String,
}

impl PlotSpec {
    /// Build a spec.
    pub fn new(kind: PlotKind, x: impl Into<String>, y: impl Into<String>) -> Self {
        PlotSpec {
            kind,
            x_column: x.into(),
            y_column: y.into(),
        }
    }
}

/// One (label, value) pair of the plotted series.
#[derive(Debug, Clone, PartialEq)]
pub struct PlotPoint {
    /// X label (rendered).
    pub label: String,
    /// Y value.
    pub value: f64,
}

/// A rendered plot.
#[derive(Debug, Clone, PartialEq)]
pub struct Plot {
    /// The specification it was built from.
    pub spec: PlotSpec,
    /// The data series in input-row order.
    pub points: Vec<PlotPoint>,
}

impl Plot {
    /// Build a plot from a result table according to a spec.
    pub fn from_table(table: &Table, spec: PlotSpec) -> ModalResult<Plot> {
        if table.is_empty() {
            return Err(ModalError::InvalidPlot {
                message: "cannot plot an empty table".into(),
            });
        }
        let x_values = table.column(&spec.x_column).map_err(ModalError::Engine)?;
        let y_values = table.column(&spec.y_column).map_err(ModalError::Engine)?;
        let mut points = Vec::with_capacity(x_values.len());
        for (x, y) in x_values.iter().zip(y_values.iter()) {
            let value = y.as_float().ok_or_else(|| ModalError::InvalidPlot {
                message: format!(
                    "the Y-axis column '{}' must be numeric, found value '{y}' of type {}",
                    spec.y_column,
                    y.data_type().prompt_name()
                ),
            })?;
            points.push(PlotPoint {
                label: render_label(x),
                value,
            });
        }
        Ok(Plot { spec, points })
    }

    /// Maximum Y value of the series (0 for an all-negative/empty series floor).
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|p| p.value).fold(f64::MIN, f64::max)
    }

    /// Render an ASCII chart (bar charts render horizontal bars; line/scatter
    /// render the series as label→value pairs).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "[{} plot] x={}, y={}\n",
            self.spec.kind.name(),
            self.spec.x_column,
            self.spec.y_column
        );
        let max = self.max_value().max(1e-9);
        let label_width = self
            .points
            .iter()
            .map(|p| p.label.chars().count())
            .max()
            .unwrap_or(1);
        for point in &self.points {
            match self.spec.kind {
                PlotKind::Bar => {
                    let width = ((point.value / max) * 40.0).round().max(0.0) as usize;
                    out.push_str(&format!(
                        "{:w$} | {} {}\n",
                        point.label,
                        "█".repeat(width),
                        format_value(point.value),
                        w = label_width
                    ));
                }
                PlotKind::Line | PlotKind::Scatter => {
                    out.push_str(&format!(
                        "{:w$} : {}\n",
                        point.label,
                        format_value(point.value),
                        w = label_width
                    ));
                }
            }
        }
        out
    }
}

impl fmt::Display for Plot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

fn render_label(value: &Value) -> String {
    match value {
        Value::Float(f) if f.fract() == 0.0 => format!("{}", *f as i64),
        other => other.to_string(),
    }
}

fn format_value(value: f64) -> String {
    if value.fract() == 0.0 {
        format!("{}", value as i64)
    } else {
        format!("{value:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesura_engine::{DataType, Schema, TableBuilder};

    fn result_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("century", DataType::Int),
            ("max_num_swords", DataType::Int),
        ]);
        let mut b = TableBuilder::new("result_table", schema);
        for (c, s) in [(15, 5), (17, 3), (19, 2)] {
            b.push_values::<_, Value>(vec![Value::Int(c), Value::Int(s)])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn figure4_bar_plot_arguments() {
        // Plot operator arguments: ('bar', 'century', 'max_num_swords').
        let spec = PlotSpec::new(
            PlotKind::from_name("bar").unwrap(),
            "century",
            "max_num_swords",
        );
        let plot = Plot::from_table(&result_table(), spec).unwrap();
        assert_eq!(plot.points.len(), 3);
        assert_eq!(plot.points[0].label, "15");
        assert_eq!(plot.max_value(), 5.0);
        let text = plot.render_text();
        assert!(text.contains("bar plot"));
        assert!(text.contains("century"));
    }

    #[test]
    fn line_and_scatter_render_points() {
        for kind in [PlotKind::Line, PlotKind::Scatter] {
            let spec = PlotSpec::new(kind, "century", "max_num_swords");
            let plot = Plot::from_table(&result_table(), spec).unwrap();
            assert!(plot.render_text().contains("15"));
        }
    }

    #[test]
    fn unknown_kind_and_missing_columns_error() {
        assert!(PlotKind::from_name("pie").is_err());
        let spec = PlotSpec::new(PlotKind::Bar, "not_a_column", "max_num_swords");
        assert!(Plot::from_table(&result_table(), spec).is_err());
    }

    #[test]
    fn non_numeric_y_axis_is_rejected_with_explanation() {
        let schema = Schema::from_pairs(&[("a", DataType::Str), ("b", DataType::Str)]);
        let mut builder = TableBuilder::new("t", schema);
        builder.push_values(["x", "y"]).unwrap();
        let err =
            Plot::from_table(&builder.build(), PlotSpec::new(PlotKind::Bar, "a", "b")).unwrap_err();
        assert!(err.to_string().contains("must be numeric"));
    }

    #[test]
    fn empty_tables_cannot_be_plotted() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let table = Table::empty("t", schema);
        assert!(Plot::from_table(&table, PlotSpec::new(PlotKind::Bar, "a", "b")).is_err());
    }
}
