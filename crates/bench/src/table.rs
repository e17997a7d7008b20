//! Plain-text table and series rendering for the `repro` experiments.
//!
//! The paper's figures are line/bar/PDF plots; `repro` prints the same
//! data as aligned ASCII tables plus compact sparkline-style series so the
//! *shape* (who wins, by how much, where crossovers fall) is readable in a
//! terminal and diffable between runs.

/// Renders a header + rows table with right-aligned numeric columns.
///
/// # Examples
///
/// ```
/// use geoplace_bench::table::render_table;
/// let out = render_table(
///     &["policy", "cost"],
///     &[vec!["Proposed".into(), "1.00".into()],
///       vec!["Pri-aware".into(), "1.33".into()]],
/// );
/// assert!(out.contains("Proposed"));
/// assert!(out.lines().count() >= 4);
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in header.iter().enumerate() {
        out.push_str(&format!("| {:<width$} ", h, width = widths[i]));
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            if i == 0 {
                out.push_str(&format!("| {:<width$} ", cell, width = widths[i]));
            } else {
                out.push_str(&format!("| {:>width$} ", cell, width = widths[i]));
            }
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Renders a numeric series as a one-line unicode sparkline.
///
/// # Examples
///
/// ```
/// use geoplace_bench::table::sparkline;
/// let s = sparkline(&[0.0, 0.5, 1.0]);
/// assert_eq!(s.chars().count(), 3);
/// ```
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Downsamples a series to at most `buckets` points by averaging.
pub fn downsample(values: &[f64], buckets: usize) -> Vec<f64> {
    if values.is_empty() || buckets == 0 {
        return Vec::new();
    }
    if values.len() <= buckets {
        return values.to_vec();
    }
    let chunk = values.len().div_ceil(buckets);
    values
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Formats a ratio as a percentage-saving string against a reference
/// (positive = this value is lower/better than the reference).
pub fn saving_vs(value: f64, reference: f64) -> String {
    if reference <= 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (1.0 - value / reference) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let out = render_table(
            &["a", "bbbb"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines.iter().all(|l| l.len() == lines[0].len()),
            "ragged table:\n{out}"
        );
    }

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], '█');
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn sparkline_constant_series() {
        let s = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn downsample_preserves_mean_roughly() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let down = downsample(&values, 10);
        assert_eq!(down.len(), 10);
        let mean_full: f64 = values.iter().sum::<f64>() / 100.0;
        let mean_down: f64 = down.iter().sum::<f64>() / down.len() as f64;
        assert!((mean_full - mean_down).abs() < 1.0);
    }

    #[test]
    fn downsample_short_series_passthrough() {
        assert_eq!(downsample(&[1.0, 2.0], 10), vec![1.0, 2.0]);
        assert!(downsample(&[], 5).is_empty());
    }

    #[test]
    fn savings_formatting() {
        assert_eq!(saving_vs(0.45, 1.0), "+55.0%");
        assert_eq!(saving_vs(1.2, 1.0), "-20.0%");
        assert_eq!(saving_vs(1.0, 0.0), "n/a");
    }
}
