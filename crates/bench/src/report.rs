//! Plain-text, JSON and CSV rendering of experiment results.

use crate::experiments::{FigureSeries, QosRow};
use sweep::RunReport;

/// Render the supplementary QoS-protection comparison as a plain-text
/// table.
#[must_use]
pub fn render_qos_table(title: &str, rows: &[QosRow]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&"=".repeat(title.len()));
    out.push('\n');
    out.push_str(&format!(
        "{:>15}  {:>12}  {:>12}  {:>18}\n",
        "controller", "accepted %", "dropping", "handoff acceptance"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>15}  {:>11.1}%  {:>12.4}  {:>17.1}%\n",
            r.controller,
            r.acceptance_percentage,
            r.dropping_probability,
            100.0 * r.handoff_acceptance
        ));
    }
    out
}

/// Render a set of series as a plain-text table: one row per x value, one
/// column per series — the same rows the paper plots.
#[must_use]
pub fn render_table(title: &str, series: &[FigureSeries]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&"=".repeat(title.len()));
    out.push('\n');
    if series.is_empty() {
        out.push_str("(no series)\n");
        return out;
    }
    // Header.
    out.push_str(&format!("{:>10}", "requests"));
    for s in series {
        out.push_str(&format!("  {:>18}", s.label));
    }
    out.push('\n');
    // Collect the union of x values, sorted.
    let mut xs: Vec<usize> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|(x, _)| *x))
        .collect();
    xs.sort_unstable();
    xs.dedup();
    for x in xs {
        out.push_str(&format!("{x:>10}"));
        for s in series {
            match s.value_at(x) {
                Some(y) => out.push_str(&format!("  {y:>17.1}%")),
                None => out.push_str(&format!("  {:>18}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Serialise a set of series to pretty-printed JSON (used to refresh
/// `EXPERIMENTS.md` mechanically).
#[must_use]
pub fn series_to_json(figure: &str, series: &[FigureSeries]) -> String {
    #[derive(serde::Serialize)]
    struct Doc<'a> {
        figure: &'a str,
        y_axis: &'a str,
        x_axis: &'a str,
        series: &'a [FigureSeries],
    }
    serde_json::to_string_pretty(&Doc {
        figure,
        y_axis: "percentage of accepted calls",
        x_axis: "number of requesting connections",
        series,
    })
    .unwrap_or_else(|_| "{}".to_string())
}

/// Serialise a sweep engine's [`RunReport`] (full aggregates: mean / std /
/// 95 % CI and merged counters) to pretty-printed JSON.
#[must_use]
pub fn run_report_to_json(report: &RunReport) -> String {
    report.to_json()
}

/// Flatten a sweep engine's [`RunReport`] to CSV, one row per
/// `(controller, load)` cell.
#[must_use]
pub fn run_report_to_csv(report: &RunReport) -> String {
    report.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<FigureSeries> {
        vec![
            FigureSeries {
                label: "FACS".into(),
                points: vec![(10, 95.0), (50, 70.5)],
            },
            FigureSeries {
                label: "SCC".into(),
                points: vec![(10, 90.0), (50, 75.0)],
            },
        ]
    }

    #[test]
    fn table_contains_all_labels_and_values() {
        let t = render_table("Fig. 7", &sample());
        assert!(t.contains("Fig. 7"));
        assert!(t.contains("FACS"));
        assert!(t.contains("SCC"));
        assert!(t.contains("95.0%"));
        assert!(t.contains("70.5%"));
        assert!(t.contains("requests"));
    }

    #[test]
    fn table_handles_empty_series_list() {
        let t = render_table("empty", &[]);
        assert!(t.contains("no series"));
    }

    #[test]
    fn table_marks_missing_points() {
        let series = vec![
            FigureSeries {
                label: "a".into(),
                points: vec![(10, 95.0)],
            },
            FigureSeries {
                label: "b".into(),
                points: vec![(20, 90.0)],
            },
        ];
        let t = render_table("partial", &series);
        assert!(t.contains('-'));
    }

    #[test]
    fn qos_table_renders_rows() {
        let rows = vec![QosRow {
            controller: "FACS-P".into(),
            acceptance_percentage: 61.2,
            dropping_probability: 0.012,
            handoff_acceptance: 0.97,
        }];
        let t = render_qos_table("QoS", &rows);
        assert!(t.contains("FACS-P"));
        assert!(t.contains("61.2%"));
        assert!(t.contains("0.0120"));
        assert!(t.contains("97.0%"));
    }

    #[test]
    fn json_roundtrips() {
        let json = series_to_json("fig7", &sample());
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["figure"], "fig7");
        assert_eq!(value["series"].as_array().unwrap().len(), 2);
        assert_eq!(value["series"][0]["label"], "FACS");
    }

    #[test]
    fn run_report_writers_delegate_to_the_engine() {
        use crate::experiments::{figure_scenario, ExperimentConfig};
        use sweep::{ControllerSpec, SweepRunner};
        let cfg = ExperimentConfig {
            request_counts: vec![20],
            repetitions: 2,
            ..ExperimentConfig::paper_default()
        };
        let spec = figure_scenario(&[ControllerSpec::AlwaysAccept], &cfg, None, None);
        let report = SweepRunner::with_threads(2).run(&spec).unwrap();
        let json = run_report_to_json(&report);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["scenario"], "figure-sweep");
        let csv = run_report_to_csv(&report);
        assert!(csv.starts_with("scenario,controller,load"));
        assert_eq!(csv.lines().count(), 2, "header + one cell");
    }
}
