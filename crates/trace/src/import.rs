//! Importing external timing reports.
//!
//! The paper builds its dots from whatever each workflow reports: wall
//! clocks from papers, benchmark logs, sbatch accounting. This module
//! accepts a simple CSV so real reports can drive the model:
//!
//! ```csv
//! # task, kind, start_s, end_s, nodes, resource, amount
//! analyze0, system_data, 0,    1000, 32, ext, 1e12
//! analyze0, compute,     1000, 1015, 32, -,   3e15
//! analyze0, overhead:srun, 1015, 1020, 32, -, -
//! ```
//!
//! `kind` is `compute`, `node_data`, `system_data`, or
//! `overhead:<label>`. `resource` applies to the data kinds; `amount` is
//! FLOPs for `compute` and bytes for the data kinds (`-` where not
//! applicable). Lines starting with `#` and blank lines are skipped.

use crate::span::{SpanKind, TraceSpan};
use crate::trace::Trace;
use std::fmt;

/// CSV import error with line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ImportError {}

fn err(line: usize, message: impl Into<String>) -> ImportError {
    ImportError {
        line,
        message: message.into(),
    }
}

fn parse_f64(field: &str, what: &str, line: usize) -> Result<f64, ImportError> {
    field.trim().parse::<f64>().map_err(|_| {
        err(
            line,
            format!("{what}: cannot parse number `{}`", field.trim()),
        )
    })
}

/// Parses the CSV timing format into a [`Trace`].
pub fn trace_from_csv(
    workflow: impl Into<String>,
    machine: impl Into<String>,
    csv: &str,
) -> Result<Trace, ImportError> {
    let mut trace = Trace::new(workflow, machine);
    for (idx, raw) in csv.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != 7 {
            return Err(err(
                line_no,
                format!("expected 7 fields (task, kind, start_s, end_s, nodes, resource, amount), got {}", fields.len()),
            ));
        }
        let task = fields[0];
        if task.is_empty() {
            return Err(err(line_no, "empty task name"));
        }
        let start = parse_f64(fields[2], "start_s", line_no)?;
        let end = parse_f64(fields[3], "end_s", line_no)?;
        if !(start.is_finite() && end.is_finite() && end >= start && start >= 0.0) {
            return Err(err(line_no, format!("bad span times {start}..{end}")));
        }
        let nodes = fields[4]
            .parse::<u64>()
            .map_err(|_| err(line_no, format!("nodes: cannot parse `{}`", fields[4])))?;
        let resource = fields[5];
        let amount = fields[6];

        let kind = match fields[1] {
            "compute" => SpanKind::Compute {
                flops: parse_f64(amount, "amount (flops)", line_no)?,
            },
            "node_data" => {
                if resource == "-" || resource.is_empty() {
                    return Err(err(line_no, "node_data needs a resource"));
                }
                SpanKind::NodeData {
                    resource: resource.to_owned(),
                    bytes: parse_f64(amount, "amount (bytes)", line_no)?,
                }
            }
            "system_data" => {
                if resource == "-" || resource.is_empty() {
                    return Err(err(line_no, "system_data needs a resource"));
                }
                SpanKind::SystemData {
                    resource: resource.to_owned(),
                    bytes: parse_f64(amount, "amount (bytes)", line_no)?,
                }
            }
            other => match other.strip_prefix("overhead:") {
                Some(label) if !label.is_empty() => SpanKind::Overhead {
                    label: label.to_owned(),
                },
                _ => {
                    return Err(err(
                        line_no,
                        format!(
                            "unknown kind `{other}` (compute, node_data, system_data, \
                             overhead:<label>)"
                        ),
                    ))
                }
            },
        };
        trace.push(TraceSpan::new(task, kind, start, end, nodes.max(1)));
    }
    Ok(trace)
}

/// Serializes a trace back to the CSV format (inverse of
/// [`trace_from_csv`] up to whitespace).
pub fn trace_to_csv(trace: &Trace) -> String {
    let mut out = String::from("# task, kind, start_s, end_s, nodes, resource, amount\n");
    for s in &trace.spans {
        let (kind, resource, amount) = match &s.kind {
            SpanKind::Compute { flops } => {
                ("compute".to_owned(), "-".to_owned(), format!("{flops}"))
            }
            SpanKind::NodeData { resource, bytes } => {
                ("node_data".to_owned(), resource.clone(), format!("{bytes}"))
            }
            SpanKind::SystemData { resource, bytes } => (
                "system_data".to_owned(),
                resource.clone(),
                format!("{bytes}"),
            ),
            SpanKind::Overhead { label } => {
                (format!("overhead:{label}"), "-".to_owned(), "-".to_owned())
            }
        };
        out.push_str(&format!(
            "{}, {}, {}, {}, {}, {}, {}\n",
            s.task, kind, s.start, s.end, s.nodes, resource, amount
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# an LCLS-like report
analyze0, system_data, 0, 1000, 32, ext, 1e12
analyze0, compute, 1000, 1015, 32, -, 3e15
analyze0, node_data, 1015, 1016, 32, dram, 1.024e12

analyze0, overhead:srun, 1016, 1020, 32, -, -
";

    #[test]
    fn parses_the_sample() {
        let t = trace_from_csv("lcls", "cori", SAMPLE).unwrap();
        assert_eq!(t.spans.len(), 4);
        assert!((t.makespan() - 1020.0).abs() < 1e-12);
        assert!((t.system_bytes()["ext"] - 1e12).abs() < 1e-3);
        assert!((t.total_flops() - 3e15).abs() < 1.0);
        assert!((t.breakdown().get("srun") - 4.0).abs() < 1e-12);
        assert_eq!(t.workflow, "lcls");
        assert_eq!(t.machine, "cori");
    }

    #[test]
    fn round_trips_through_csv() {
        let t = trace_from_csv("w", "m", SAMPLE).unwrap();
        let csv = trace_to_csv(&t);
        let back = trace_from_csv("w", "m", &csv).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = trace_from_csv("w", "m", "task, compute, 0, 1, 1").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("7 fields"), "{e}");

        let e = trace_from_csv("w", "m", "\n\nt, warp, 0, 1, 1, -, -").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown kind"), "{e}");

        let e = trace_from_csv("w", "m", "t, compute, 5, 1, 1, -, 1").unwrap_err();
        assert!(e.message.contains("bad span times"), "{e}");

        let e = trace_from_csv("w", "m", "t, compute, 0, 1, 1, -, abc").unwrap_err();
        assert!(e.message.contains("cannot parse number"), "{e}");

        let e = trace_from_csv("w", "m", "t, node_data, 0, 1, 1, -, 5").unwrap_err();
        assert!(e.message.contains("needs a resource"), "{e}");

        let e = trace_from_csv("w", "m", "t, overhead:, 0, 1, 1, -, -").unwrap_err();
        assert!(e.message.contains("unknown kind"), "{e}");

        let e = trace_from_csv("w", "m", ", compute, 0, 1, 1, -, 1").unwrap_err();
        assert!(e.message.contains("empty task"), "{e}");

        let e = trace_from_csv("w", "m", "t, compute, 0, 1, x, -, 1").unwrap_err();
        assert!(e.message.contains("nodes"), "{e}");
    }

    #[test]
    fn imported_trace_characterizes() {
        use crate::characterize::{characterize, Structure};
        let t = trace_from_csv("lcls", "cori", SAMPLE).unwrap();
        let wf = characterize(&t, &Structure::new(6.0, 5.0, 32)).unwrap();
        assert!((wf.system_volumes["ext"].get() - 1e12).abs() < 1e-3);
        assert!(wf.node_volumes.contains_key("dram"));
    }
}
