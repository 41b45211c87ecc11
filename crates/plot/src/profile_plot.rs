//! SVG step charts of parallelism profiles: concurrent tasks (and busy
//! nodes) over time. Makes the roofline's hidden dimension — pipelining
//! quality over the makespan — visible (the paper's §V limitation).

use crate::svg::{Anchor, Svg};
use wrm_dag::ParallelismProfile;

/// Renders the profile as two stacked step charts (tasks, nodes).
pub fn render_svg(title: &str, profile: &ParallelismProfile, width: f64) -> String {
    let height = 380.0;
    let mut svg = Svg::new(width, height);
    svg.text(
        width / 2.0,
        22.0,
        title,
        15.0,
        "#111111",
        Anchor::Middle,
        None,
    );

    if profile.steps.is_empty() {
        svg.text(
            width / 2.0,
            height / 2.0,
            "(empty profile)",
            13.0,
            "#666666",
            Anchor::Middle,
            None,
        );
        return svg.finish();
    }

    let t_end = profile.steps.last().expect("non-empty").end;
    let ml = 64.0;
    let mr = 24.0;
    let panel_h = 130.0;
    let gap = 40.0;
    let plot_w = width - ml - mr;

    type StepValue = Box<dyn Fn(&wrm_dag::ProfileStep) -> f64>;
    let panels: [(&str, StepValue, f64, &str); 2] = [
        (
            "concurrent tasks",
            Box::new(|s| s.tasks as f64),
            profile.peak_tasks() as f64,
            "#1565c0",
        ),
        (
            "busy nodes",
            Box::new(|s| s.nodes as f64),
            profile.peak_nodes() as f64,
            "#ef6c00",
        ),
    ];

    for (pi, (label, value, peak, color)) in panels.iter().enumerate() {
        let top = 40.0 + pi as f64 * (panel_h + gap);
        let bottom = top + panel_h;
        let peak = peak.max(1.0);
        // Axes.
        svg.line(ml, bottom, width - mr, bottom, "#222222", 1.2, None);
        svg.line(ml, top, ml, bottom, "#222222", 1.2, None);
        svg.text(
            ml - 8.0,
            top + 4.0,
            &format!("{peak:.0}"),
            10.5,
            "#444444",
            Anchor::End,
            None,
        );
        svg.text(
            ml - 8.0,
            bottom + 4.0,
            "0",
            10.5,
            "#444444",
            Anchor::End,
            None,
        );
        svg.text(
            width - mr,
            bottom + 16.0,
            &format!("{t_end:.0} s"),
            10.5,
            "#444444",
            Anchor::End,
            None,
        );
        svg.text(
            ml + 6.0,
            top - 6.0,
            label,
            12.0,
            "#111111",
            Anchor::Start,
            None,
        );

        // Step polyline + fill.
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(profile.steps.len() * 2 + 2);
        let y_of = |v: f64| bottom - v / peak * (panel_h - 8.0);
        pts.push((ml, bottom));
        for step in &profile.steps {
            let x0 = ml + step.start / t_end * plot_w;
            let x1 = ml + step.end / t_end * plot_w;
            let y = y_of(value(step));
            pts.push((x0, y));
            pts.push((x1, y));
        }
        pts.push((ml + plot_w, bottom));
        svg.polygon(&pts, color, 0.15);
        svg.polyline(&pts[1..pts.len() - 1], color, 2.0);
    }
    svg.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrm_dag::Dag;

    #[test]
    fn renders_profile_panels() {
        let mut d = Dag::new("p");
        let merge = d.add_task("merge", 1, 20.0).unwrap();
        for i in 0..5 {
            let a = d.add_task(format!("a{i}"), 32, 1000.0).unwrap();
            d.add_dep(a, merge).unwrap();
        }
        let mut intervals = vec![(1000.0, 1020.0)];
        intervals.extend([(0.0, 1000.0); 5]);
        let profile = ParallelismProfile::build(&d, &intervals);
        let svg = render_svg("LCLS parallelism", &profile, 720.0);
        assert!(svg.contains("concurrent tasks"));
        assert!(svg.contains("busy nodes"));
        assert!(svg.contains("1020 s"));
        assert!(svg.contains("<polyline"));
    }

    #[test]
    fn empty_profile_renders_placeholder() {
        let profile = ParallelismProfile { steps: Vec::new() };
        let svg = render_svg("empty", &profile, 400.0);
        assert!(svg.contains("(empty profile)"));
    }
}
