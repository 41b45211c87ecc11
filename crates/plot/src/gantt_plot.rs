//! SVG Gantt charts (paper Fig. 7d): task bars over time with the
//! critical path highlighted.

use crate::svg::{Anchor, Svg};
use wrm_dag::GanttChart;

/// Renders one or more Gantt charts stacked vertically with a shared
/// style (the paper shows 64-node and 1024-node BGW together).
pub fn render_svg(charts: &[&GanttChart], width: f64) -> String {
    let row_h = 22.0;
    let gap = 40.0;
    let ml = 120.0;
    let mr = 30.0;
    let mt = 30.0;

    let total_rows: usize = charts.iter().map(|c| c.rows.len()).sum();
    let height = mt + total_rows as f64 * row_h + charts.len() as f64 * gap + 20.0;
    let mut svg = Svg::new(width, height);

    let mut y = mt;
    for chart in charts {
        svg.text(
            ml,
            y - 8.0,
            &format!("{}  (makespan {:.1} s)", chart.name, chart.makespan),
            13.0,
            "#111111",
            Anchor::Start,
            None,
        );
        let span = chart.makespan.max(1e-9);
        let plot_w = width - ml - mr;
        for row in &chart.rows {
            let x0 = ml + row.start / span * plot_w;
            let x1 = ml + row.end / span * plot_w;
            let fill = if row.on_critical_path {
                "#1565c0"
            } else {
                "#90a4ae"
            };
            svg.rect(
                x0,
                y + 3.0,
                (x1 - x0).max(1.0),
                row_h - 8.0,
                fill,
                Some("#37474f"),
            );
            svg.text(
                ml - 6.0,
                y + row_h / 2.0 + 3.0,
                &row.name,
                11.0,
                "#111111",
                Anchor::End,
                None,
            );
            svg.text(
                (x1 + 4.0).min(width - mr),
                y + row_h / 2.0 + 3.0,
                &format!("{:.0}s", row.end - row.start),
                10.0,
                "#424242",
                Anchor::Start,
                None,
            );
            y += row_h;
        }
        // Critical-path connector line across the chart.
        let cp_rows: Vec<&wrm_dag::GanttRow> =
            chart.rows.iter().filter(|r| r.on_critical_path).collect();
        if cp_rows.len() > 1 {
            let base = y - chart.rows.len() as f64 * row_h;
            let pts: Vec<(f64, f64)> = chart
                .rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r.on_critical_path)
                .map(|(i, r)| {
                    (
                        ml + (r.start + r.end) / 2.0 / span * plot_w,
                        base + i as f64 * row_h + row_h / 2.0,
                    )
                })
                .collect();
            svg.polyline(&pts, "#0d47a1", 2.0);
        }
        y += gap;
    }
    svg.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrm_dag::{Dag, GanttChart};

    fn bgw_chart(te: f64, ts: f64) -> GanttChart {
        let mut d = Dag::new("BGW");
        let e = d.add_task("Epsilon", 64, te).unwrap();
        let s = d.add_task("Sigma", 64, ts).unwrap();
        d.add_dep(e, s).unwrap();
        GanttChart::build(&d, &[(0.0, te), (te, te + ts)]).unwrap()
    }

    #[test]
    fn renders_two_charts() {
        let a = bgw_chart(1240.0, 2944.86);
        let b = bgw_chart(180.0, 224.74);
        let svg = render_svg(&[&a, &b], 800.0);
        assert_eq!(svg.matches("BGW  (makespan").count(), 2);
        assert!(svg.contains("Epsilon"));
        assert!(svg.contains("Sigma"));
        assert!(svg.contains("#1565c0")); // critical-path fill
        assert!(svg.contains("<polyline")); // connector
    }

    #[test]
    fn empty_chart_still_renders() {
        let chart = GanttChart::build(&Dag::new("empty"), &[]).unwrap();
        let svg = render_svg(&[&chart], 400.0);
        assert!(svg.contains("empty"));
        assert!(svg.ends_with("</svg>\n"));
    }
}
