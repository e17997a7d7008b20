//! Figure renderers: turn a set of [`SimulationReport`]s into the ASCII
//! equivalents of the paper's Figures 1–6.

use crate::table::{downsample, render_table, saving_vs, sparkline};
use geoplace_dcsim::metrics::{Histogram, SimulationReport};

/// Fig. 1 — weekly operational cost, normalized by the worst policy.
pub fn fig1(reports: &[SimulationReport]) -> String {
    let costs: Vec<f64> = reports.iter().map(|r| r.totals().cost_eur).collect();
    let worst = costs.iter().cloned().fold(0.0, f64::max);
    let proposed = costs[position(reports, "Proposed")];
    let mut rows = Vec::new();
    for (report, &cost) in reports.iter().zip(costs.iter()) {
        rows.push(vec![
            report.policy.clone(),
            format!("{cost:.2}"),
            format!("{:.3}", if worst > 0.0 { cost / worst } else { 0.0 }),
            saving_vs(proposed, cost),
            sparkline(&downsample(&report.hourly_cost(), 56)),
        ]);
    }
    let mut out = String::from("Fig. 1 — Normalized operational cost (one week)\n");
    out.push_str(&render_table(
        &[
            "policy",
            "cost EUR",
            "normalized",
            "Proposed saves",
            "hourly shape",
        ],
        &rows,
    ));
    out
}

/// Fig. 2 — hourly energy consumed by the DCs and weekly totals in GJ.
pub fn fig2(reports: &[SimulationReport]) -> String {
    let mut rows = Vec::new();
    for report in reports {
        let totals = report.totals();
        rows.push(vec![
            report.policy.clone(),
            format!("{:.2}", totals.energy_gj),
            format!("{:.2}", totals.grid_energy_gj),
            format!("{:.1}", totals.mean_active_servers),
            sparkline(&downsample(&report.hourly_energy_gj(), 56)),
        ]);
    }
    let mut out = String::from("Fig. 2 — Energy consumed by DCs (one week)\n");
    out.push_str(&render_table(
        &[
            "policy",
            "total GJ",
            "grid GJ",
            "mean servers on",
            "hourly shape",
        ],
        &rows,
    ));
    out
}

/// Fig. 3 — probability distribution of the normalized response time.
pub fn fig3(reports: &[SimulationReport]) -> String {
    // Normalize by the worst-case sample across all policies, as the paper
    // does ("normalized with respect to the worst-case value among the
    // methods").
    let worst = reports
        .iter()
        .flat_map(|r| r.response_samples.iter().copied())
        .fold(0.0f64, f64::max);
    let mut out = String::from("Fig. 3 — PDF of normalized response time (one week)\n");
    let bins = 10;
    let mut rows = Vec::new();
    for report in reports {
        let normalized: Vec<f64> = report
            .response_samples
            .iter()
            .map(|&s| if worst > 0.0 { s / worst } else { 0.0 })
            .collect();
        let histogram = Histogram::from_samples(&normalized, bins, 1.0);
        let pdf = histogram.pdf();
        let mean = if normalized.is_empty() {
            0.0
        } else {
            normalized.iter().sum::<f64>() / normalized.len() as f64
        };
        let peak = normalized.iter().cloned().fold(0.0, f64::max);
        rows.push(vec![
            report.policy.clone(),
            format!("{mean:.3}"),
            format!("{peak:.3}"),
            pdf.iter()
                .map(|p| format!("{p:.2}"))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    out.push_str(&render_table(
        &["policy", "mean", "worst", "pdf bins 0.0..1.0 (10 bins)"],
        &rows,
    ));
    out
}

/// Fig. 4 — total cost, energy and performance summary.
pub fn fig4(reports: &[SimulationReport]) -> String {
    let worst_cost = reports
        .iter()
        .map(|r| r.totals().cost_eur)
        .fold(0.0, f64::max);
    let worst_energy = reports
        .iter()
        .map(|r| r.totals().energy_gj)
        .fold(0.0, f64::max);
    let worst_response = reports
        .iter()
        .map(|r| r.totals().worst_response_s)
        .fold(0.0, f64::max);
    let mut rows = Vec::new();
    for report in reports {
        let totals = report.totals();
        rows.push(vec![
            report.policy.clone(),
            normalized_cell(totals.cost_eur, worst_cost),
            normalized_cell(totals.energy_gj, worst_energy),
            normalized_cell(totals.worst_response_s, worst_response),
        ]);
    }
    let mut out = String::from("Fig. 4 — Totals (normalized by worst; lower is better)\n");
    out.push_str(&render_table(
        &[
            "policy",
            "operational cost",
            "energy",
            "response time (worst)",
        ],
        &rows,
    ));
    out
}

/// Fig. 5 — cost–performance trade-off (one point per policy).
pub fn fig5(reports: &[SimulationReport]) -> String {
    scatter(
        reports,
        "Fig. 5 — Cost-Performance trade-off",
        "cost EUR",
        |t| t.cost_eur,
        "worst response s",
        |t| t.worst_response_s,
    )
}

/// Fig. 6 — energy–performance trade-off (one point per policy).
pub fn fig6(reports: &[SimulationReport]) -> String {
    scatter(
        reports,
        "Fig. 6 — Energy-Performance trade-off",
        "energy GJ",
        |t| t.energy_gj,
        "worst response s",
        |t| t.worst_response_s,
    )
}

fn scatter(
    reports: &[SimulationReport],
    title: &str,
    x_name: &str,
    x: impl Fn(&geoplace_dcsim::metrics::Totals) -> f64,
    y_name: &str,
    y: impl Fn(&geoplace_dcsim::metrics::Totals) -> f64,
) -> String {
    let mut rows = Vec::new();
    let proposed = reports[position(reports, "Proposed")].totals();
    for report in reports {
        let totals = report.totals();
        rows.push(vec![
            report.policy.clone(),
            format!("{:.2}", x(&totals)),
            format!("{:.2}", y(&totals)),
            saving_vs(x(&proposed), x(&totals)),
            saving_vs(y(&proposed), y(&totals)),
        ]);
    }
    let mut out = format!("{title}\n");
    out.push_str(&render_table(
        &[
            "policy",
            x_name,
            y_name,
            "Proposed saves (x)",
            "Proposed saves (y)",
        ],
        &rows,
    ));
    out
}

fn normalized_cell(value: f64, worst: f64) -> String {
    if worst > 0.0 {
        format!("{:.3}", value / worst)
    } else {
        "0.000".to_string()
    }
}

fn position(reports: &[SimulationReport], name: &str) -> usize {
    reports.iter().position(|r| r.policy == name).unwrap_or(0)
}

/// All six figures, in order.
pub fn all_figures(reports: &[SimulationReport]) -> String {
    let mut out = String::new();
    for section in [
        fig1(reports),
        fig2(reports),
        fig3(reports),
        fig4(reports),
        fig5(reports),
        fig6(reports),
    ] {
        out.push_str(&section);
        out.push('\n');
    }
    out
}

/// Migration/QoS diagnostics appended by `repro all`.
pub fn migration_summary(reports: &[SimulationReport]) -> String {
    let mut rows = Vec::new();
    for report in reports {
        let totals = report.totals();
        rows.push(vec![
            report.policy.clone(),
            totals.migrations.to_string(),
            format!("{:.0}", totals.migration_volume_gb),
            totals.migration_overruns.to_string(),
        ]);
    }
    let mut out = String::from("Migrations (volume in GB; overruns = QoS budget blown)\n");
    out.push_str(&render_table(
        &["policy", "count", "volume", "overruns"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoplace_dcsim::metrics::HourlyRecord;

    fn fake(name: &str, cost: f64, energy_gj: f64, response: f64) -> SimulationReport {
        let mut report = SimulationReport::new(name, 3);
        report.push_hour(HourlyRecord {
            cost_eur: cost,
            total_energy_j: energy_gj * 1e9,
            response_worst_s: response,
            ..HourlyRecord::default()
        });
        report.response_samples = vec![response, response / 2.0];
        report
    }

    fn reports() -> Vec<SimulationReport> {
        vec![
            fake("Proposed", 10.0, 5.0, 8.0),
            fake("Ener-aware", 22.0, 4.8, 9.0),
            fake("Pri-aware", 13.0, 6.0, 9.2),
            fake("Net-aware", 15.0, 6.2, 7.8),
        ]
    }

    #[test]
    fn fig1_normalizes_by_worst() {
        let out = fig1(&reports());
        assert!(out.contains("1.000"), "worst policy must be 1.000:\n{out}");
        assert!(out.contains("Proposed"));
    }

    #[test]
    fn fig3_pdf_covers_policies() {
        let out = fig3(&reports());
        for name in ["Proposed", "Ener-aware", "Pri-aware", "Net-aware"] {
            assert!(out.contains(name), "{name} missing:\n{out}");
        }
    }

    #[test]
    fn all_figures_renders_six_sections() {
        let out = all_figures(&reports());
        for fig in ["Fig. 1", "Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6"] {
            assert!(out.contains(fig), "{fig} missing");
        }
    }

    #[test]
    fn migration_summary_renders() {
        let out = migration_summary(&reports());
        assert!(out.contains("overruns"));
    }
}
