//! Plain-text rendering of exploration results, used by the reproduction
//! harness to print the paper's tables and figure data.

use std::fmt::Write as _;

/// Renders a fixed-width table. `headers` and every row must have the same
/// arity.
///
/// # Panics
///
/// Panics if a row's arity differs from the header's.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity must match header");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
        }
        out.truncate(out.trim_end().len());
        out.push('\n');
    };
    write_row(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Renders a compact ASCII sparkline of a value series (8 levels).
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    if values.is_empty() {
        return String::new();
    }
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            LEVELS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "22222".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("alpha"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
        assert_eq!(sparkline(&[]), "");
        // Constant input doesn't panic.
        assert_eq!(sparkline(&[5.0, 5.0]).chars().count(), 2);
    }
}
