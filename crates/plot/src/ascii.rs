//! Terminal (ASCII) rendering: rooflines, Gantt charts and breakdowns
//! readable directly in a shell, for quick looks without an SVG viewer.

use wrm_core::{CeilingKind, RooflineModel};
use wrm_dag::GanttChart;

/// Renders a roofline as a `width x height` character grid (log-log).
///
/// Glyphs: `/` node ceilings, `=` system ceilings, `|` the parallelism
/// wall, `O` the workflow dot(s), `.` grid. The legend lists ceilings
/// with their labels.
pub fn roofline(model: &RooflineModel, width: usize, height: usize) -> String {
    let width = width.clamp(24, 200);
    let height = height.clamp(10, 80);
    let wall = model.parallelism_wall as f64;

    let mut ys: Vec<f64> = Vec::new();
    let mut xs: Vec<f64> = vec![0.5, wall * 2.0];
    for c in &model.ceilings {
        ys.push(c.tps_at(1.0).get());
        ys.push(c.tps_at(wall).get());
    }
    if let Some(d) = &model.dot {
        ys.push(d.tps.get());
        xs.push(d.x);
    }
    let (x_lo, x_hi) = crate::scale::log_domain(xs);
    let (y_lo, y_hi) = crate::scale::log_domain(ys);
    let lx = |x: f64| -> usize {
        let t = (x.log10() - x_lo.log10()) / (x_hi.log10() - x_lo.log10());
        ((t * (width - 1) as f64).round() as isize).clamp(0, width as isize - 1) as usize
    };
    let ly = |y: f64| -> usize {
        let t = (y.log10() - y_lo.log10()) / (y_hi.log10() - y_lo.log10());
        let row = ((1.0 - t) * (height - 1) as f64).round() as isize;
        row.clamp(0, height as isize - 1) as usize
    };

    let mut grid = vec![vec![' '; width]; height];

    // Ceilings.
    for c in &model.ceilings {
        let glyph = match c.kind {
            CeilingKind::Node => '/',
            CeilingKind::System => '=',
        };
        #[allow(clippy::needless_range_loop)] // col indexes a 2-D grid by row(y) first
        for col in 0..width {
            let t = col as f64 / (width - 1) as f64;
            let x = 10f64.powf(x_lo.log10() + t * (x_hi.log10() - x_lo.log10()));
            let y = c.tps_at(x).get();
            if (y_lo..=y_hi).contains(&y) {
                grid[ly(y)][col] = glyph;
            }
        }
    }

    // Wall.
    if wall >= x_lo && wall <= x_hi {
        let col = lx(wall);
        for row in grid.iter_mut() {
            if row[col] == ' ' {
                row[col] = '|';
            }
        }
    }

    // Dot.
    if let Some(d) = &model.dot {
        if d.tps.get() > 0.0 {
            grid[ly(d.tps.get().clamp(y_lo, y_hi))][lx(d.x.clamp(x_lo, x_hi))] = 'O';
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "{} on {} (wall @ {} tasks)\n",
        model.workflow.name, model.machine_name, model.parallelism_wall
    ));
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{y_hi:>9.2e} ")
        } else if i == height - 1 {
            format!("{y_lo:>9.2e} ")
        } else {
            " ".repeat(10)
        };
        out.push_str(&label);
        out.push('\u{2502}');
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&" ".repeat(10));
    out.push('\u{2514}');
    out.push_str(&"\u{2500}".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "{}{:<} .. {} parallel tasks\n",
        " ".repeat(11),
        x_lo,
        x_hi
    ));
    for c in &model.ceilings {
        let glyph = match c.kind {
            CeilingKind::Node => '/',
            CeilingKind::System => '=',
        };
        out.push_str(&format!("  {glyph} {}\n", c.label));
    }
    if let Some(d) = &model.dot {
        out.push_str(&format!(
            "  O {} ({:.3e} tasks/s at x={})\n",
            d.label,
            d.tps.get(),
            d.x
        ));
    }
    out
}

/// Renders a Gantt chart as text: one row per task, `#` for execution,
/// `*` marking critical-path tasks.
pub fn gantt(chart: &GanttChart, width: usize) -> String {
    let width = width.clamp(20, 160);
    let mut out = String::new();
    out.push_str(&format!(
        "{} (makespan {:.2} s, critical path {:.2} s)\n",
        chart.name,
        chart.makespan,
        chart.critical_path_time()
    ));
    if chart.makespan <= 0.0 || chart.rows.is_empty() {
        out.push_str("  (empty)\n");
        return out;
    }
    let name_w = chart
        .rows
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(4)
        .min(24);
    for row in &chart.rows {
        let start = ((row.start / chart.makespan) * width as f64).round() as usize;
        let end = ((row.end / chart.makespan) * width as f64).round() as usize;
        let end = end.max(start + 1).min(width);
        let mut bar = vec![' '; width];
        let glyph = if row.on_critical_path { '#' } else { '+' };
        for cell in bar.iter_mut().take(end).skip(start) {
            *cell = glyph;
        }
        let mark = if row.on_critical_path { '*' } else { ' ' };
        let name: String = row.name.chars().take(name_w).collect();
        out.push_str(&format!(
            "{mark}{name:<name_w$} \u{2502}{}\u{2502} {:>9}..{:<9} ({} nodes)\n",
            bar.iter().collect::<String>(),
            format!("{:.1}s", row.start),
            format!("{:.1}s", row.end),
            row.nodes
        ));
    }
    out
}

/// Renders a set of time breakdowns as horizontal stacked bars with a
/// shared scale (Fig. 5b / Fig. 10b in text form).
pub fn breakdown(breakdowns: &[wrm_trace::TimeBreakdown], width: usize) -> String {
    let width = width.clamp(20, 160);
    let total_max = breakdowns
        .iter()
        .map(wrm_trace::TimeBreakdown::total)
        .fold(0.0f64, f64::max);
    let mut out = String::new();
    if total_max <= 0.0 {
        out.push_str("(no time recorded)\n");
        return out;
    }
    let glyphs = ['#', '%', '@', '+', 'x', 'o', ':', '~'];
    // Stable category order across bars: first appearance.
    let mut cats: Vec<String> = Vec::new();
    for b in breakdowns {
        for (c, _) in &b.categories {
            if !cats.contains(c) {
                cats.push(c.clone());
            }
        }
    }
    let label_w = breakdowns.iter().map(|b| b.label.len()).max().unwrap_or(4);
    for b in breakdowns {
        let mut bar = String::new();
        for (ci, cat) in cats.iter().enumerate() {
            let t = b.get(cat);
            let cells = ((t / total_max) * width as f64).round() as usize;
            bar.push_str(&glyphs[ci % glyphs.len()].to_string().repeat(cells));
        }
        out.push_str(&format!(
            "{:<label_w$} \u{2502}{bar:<width$}\u{2502} {:.1} s\n",
            b.label,
            b.total()
        ));
    }
    out.push_str("  legend:");
    for (ci, cat) in cats.iter().enumerate() {
        out.push_str(&format!(" {}={}", glyphs[ci % glyphs.len()], cat));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrm_core::{ids, machines, Bytes, Flops, Seconds, Work, WorkflowCharacterization};
    use wrm_dag::Dag;
    use wrm_trace::TimeBreakdown;

    fn model() -> RooflineModel {
        let wf = WorkflowCharacterization::builder("demo")
            .total_tasks(2.0)
            .parallel_tasks(1.0)
            .nodes_per_task(64)
            .makespan(Seconds::secs(4184.86))
            .node_volume(ids::COMPUTE, Work::Flops(Flops::pflops(4390.0) / 64.0))
            .system_volume(ids::FILE_SYSTEM, Bytes::gb(70.0))
            .build()
            .unwrap();
        RooflineModel::build(&machines::perlmutter_gpu(), &wf).unwrap()
    }

    #[test]
    fn roofline_contains_all_elements() {
        let text = roofline(&model(), 72, 20);
        assert!(text.contains("demo on Perlmutter GPU"));
        assert!(text.contains('/'), "node ceiling glyph");
        assert!(text.contains('='), "system ceiling glyph");
        assert!(text.contains('|'), "wall glyph");
        assert!(text.contains('O'), "dot glyph");
        assert!(text.contains("GPU FLOPS"));
    }

    #[test]
    fn roofline_clamps_extreme_sizes() {
        let small = roofline(&model(), 1, 1);
        assert!(small.lines().count() >= 10);
        let large = roofline(&model(), 10_000, 10_000);
        assert!(large.lines().count() <= 100);
    }

    #[test]
    fn gantt_text() {
        let mut d = Dag::new("BGW");
        let e = d.add_task("Epsilon", 64, 180.0).unwrap();
        let s = d.add_task("Sigma", 64, 225.0).unwrap();
        d.add_dep(e, s).unwrap();
        let chart = GanttChart::build(&d, &[(0.0, 180.0), (180.0, 405.0)]).unwrap();
        let text = gantt(&chart, 60);
        assert!(text.contains("BGW"));
        assert!(text.contains("Epsilon"));
        assert!(text.contains("Sigma"));
        assert!(text.contains('#'));
        assert!(text.contains('*'));
        // Sigma's bar starts after Epsilon's.
        let lines: Vec<&str> = text.lines().collect();
        let eps_line = lines.iter().find(|l| l.contains("Epsilon")).unwrap();
        let sig_line = lines.iter().find(|l| l.contains("Sigma")).unwrap();
        let eps_start = eps_line.find('#').unwrap();
        let sig_start = sig_line.find('#').unwrap();
        assert!(sig_start > eps_start);
        // The time column keeps each unit next to its number.
        assert!(
            sig_line.ends_with("\u{2502}    180.0s..405.0s    (64 nodes)"),
            "{sig_line}"
        );
    }

    #[test]
    fn gantt_empty() {
        let chart = GanttChart::build(&Dag::new("empty"), &[]).unwrap();
        assert!(gantt(&chart, 40).contains("(empty)"));
    }

    #[test]
    fn breakdown_bars() {
        let bars = vec![
            TimeBreakdown {
                label: "RCI".into(),
                categories: vec![("python".into(), 209.0), ("bash".into(), 295.0)],
            },
            TimeBreakdown {
                label: "Spawn".into(),
                categories: vec![("python".into(), 209.0)],
            },
        ];
        let text = breakdown(&bars, 60);
        assert!(text.contains("RCI"));
        assert!(text.contains("Spawn"));
        assert!(text.contains("legend:"));
        assert!(text.contains("python"));
        // RCI bar longer than Spawn bar.
        let rci_len = text.lines().next().unwrap().matches(['#', '%']).count();
        let spawn_len = text.lines().nth(1).unwrap().matches(['#', '%']).count();
        assert!(rci_len > spawn_len);
    }

    #[test]
    fn breakdown_empty() {
        assert!(breakdown(&[], 40).contains("no time recorded"));
    }
}
