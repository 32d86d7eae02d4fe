//! Plain-text rendering shared by the figures, the CLI, the examples and
//! EXPERIMENTS.md generation: aligned tables and compact CDF summaries.

use crate::stats::Cdf;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                for _ in cell.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a float with one decimal.
pub fn ms(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// CSV rendering of a table (RFC-4180-style quoting) for external plotting
/// tools; `cloudy-repro all --csv` writes each figure's series this way.
impl Table {
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// A terminal CDF plot: one character row per decile band, series marked by
/// distinct glyphs. Meant for figure text and examples, not precision.
pub fn ascii_cdf(series: &[(&str, &Cdf)], width: usize, x_max: f64) -> String {
    assert!(width >= 20, "plot too narrow");
    assert!(x_max > 0.0);
    const GLYPHS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];
    const HEIGHT: usize = 11; // 0%..100% in 10% rows.
    let mut grid = vec![vec![' '; width]; HEIGHT];
    for (si, (_, cdf)) in series.iter().enumerate() {
        if cdf.is_empty() {
            continue;
        }
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (row, grid_row) in grid.iter_mut().enumerate() {
            let q = 1.0 - row as f64 / (HEIGHT - 1) as f64;
            let v = cdf.quantile(q);
            let col = ((v / x_max) * (width - 1) as f64).round() as usize;
            if col < width {
                grid_row[col] = glyph;
            }
        }
    }
    let mut out = String::new();
    for (row, line) in grid.iter().enumerate() {
        let pct_label = 100 - row * 10;
        out.push_str(&format!("{pct_label:>4}% |"));
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&format!("      +{}\n", "-".repeat(width)));
    out.push_str(&format!("       0{:>w$.0}\n", x_max, w = width - 1));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {name}", GLYPHS[i % GLYPHS.len()]))
        .collect();
    out.push_str(&format!("       {}\n", legend.join("   ")));
    out
}

/// One-line CDF summary: p10/p25/p50/p75/p90 (the series a figure plots).
pub fn cdf_summary(cdf: &Cdf) -> String {
    format!(
        "n={} p10={:.1} p25={:.1} p50={:.1} p75={:.1} p90={:.1}",
        cdf.len(),
        cdf.quantile(0.10),
        cdf.quantile(0.25),
        cdf.quantile(0.50),
        cdf.quantile(0.75),
        cdf.quantile(0.90),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["country", "median"]);
        t.add_row(vec!["DE".to_string(), "34.5".to_string()]);
        t.add_row(vec!["Longname".to_string(), "120.0".to_string()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("country"));
        // Columns align: "median" column starts at the same offset.
        let off = lines[0].find("median").unwrap();
        assert_eq!(lines[2].find("34.5"), Some(off));
        assert_eq!(lines[3].find("120.0"), Some(off));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.add_row(vec!["only one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(12.34), "12.3");
        assert_eq!(pct(0.456), "45.6%");
    }

    #[test]
    fn csv_round_trips_simple_cells() {
        let mut t = Table::new(vec!["a", "b"]);
        t.add_row(vec!["1", "2"]);
        t.add_row(vec!["with,comma", "with\"quote"]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,2");
        assert_eq!(lines[2], "\"with,comma\",\"with\"\"quote\"");
    }

    #[test]
    fn ascii_cdf_plots_monotone_series() {
        let fast = Cdf::new((0..100).map(|i| i as f64).collect());
        let slow = Cdf::new((0..100).map(|i| (i * 3) as f64).collect());
        let plot = ascii_cdf(&[("fast", &fast), ("slow", &slow)], 60, 300.0);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 14, "11 rows + axis + labels + legend");
        assert!(plot.contains("* fast"));
        assert!(plot.contains("+ slow"));
        // The fast series' 100% mark sits left of the slow series'.
        let top = lines[0];
        let fast_col = top.find('*');
        let slow_col = top.find('+');
        if let (Some(f), Some(s)) = (fast_col, slow_col) {
            assert!(f < s, "fast at {f}, slow at {s}: {top}");
        }
    }

    #[test]
    #[should_panic(expected = "plot too narrow")]
    fn ascii_cdf_rejects_tiny_width() {
        let c = Cdf::new(vec![1.0]);
        ascii_cdf(&[("x", &c)], 5, 10.0);
    }

    #[test]
    fn cdf_summary_contains_quantiles() {
        let c = Cdf::new((1..=100).map(|i| i as f64).collect());
        let s = cdf_summary(&c);
        assert!(s.contains("n=100"));
        assert!(s.contains("p50=50") || s.contains("p50=51"));
    }
}
