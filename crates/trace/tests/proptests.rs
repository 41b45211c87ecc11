//! Property tests for trace serialization and aggregation.

use proptest::prelude::*;
use wrm_trace::{
    characterize, trace_from_csv, trace_to_csv, SpanKind, Structure, Trace, TraceSpan,
};

fn span_kind() -> impl Strategy<Value = SpanKind> {
    prop_oneof![
        (0.0f64..1e18).prop_map(|flops| SpanKind::Compute { flops }),
        ("[a-z]{1,8}", 0.0f64..1e15)
            .prop_map(|(resource, bytes)| SpanKind::NodeData { resource, bytes }),
        ("[a-z]{1,8}", 0.0f64..1e15)
            .prop_map(|(resource, bytes)| SpanKind::SystemData { resource, bytes }),
        "[a-z_]{1,12}".prop_map(|label| SpanKind::Overhead { label }),
    ]
}

prop_compose! {
    fn spans()(raw in prop::collection::vec(
        ("[a-z0-9_]{1,10}", 0.0f64..1e6, 0.0f64..1e5, 1u64..1024, span_kind()),
        0..40,
    )) -> Vec<TraceSpan> {
        raw.into_iter()
            .map(|(task, start, len, nodes, kind)| {
                TraceSpan::new(task, kind, start, start + len, nodes)
            })
            .collect()
    }
}

prop_compose! {
    fn traces()(spans in spans()) -> Trace {
        let mut t = Trace::new("prop", "machine");
        for s in spans {
            t.push(s);
        }
        t
    }
}

proptest! {
    #[test]
    fn jsonl_round_trips_exactly(trace in traces()) {
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        prop_assert_eq!(&back, &trace);
    }

    #[test]
    fn csv_round_trips_exactly(trace in traces()) {
        let csv = trace_to_csv(&trace);
        let back = trace_from_csv(trace.workflow.clone(), trace.machine.clone(), &csv).unwrap();
        prop_assert_eq!(&back, &trace);
    }

    #[test]
    fn breakdown_total_equals_sum_of_durations(trace in traces()) {
        let total: f64 = trace.spans.iter().map(wrm_trace::TraceSpan::duration).sum();
        let b = trace.breakdown();
        prop_assert!((b.total() - total).abs() <= 1e-6 * total.max(1.0));
    }

    #[test]
    fn makespan_covers_every_span(trace in traces()) {
        let m = trace.makespan();
        if trace.spans.is_empty() {
            prop_assert_eq!(m, 0.0);
            return Ok(());
        }
        let start = trace.spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        for s in &trace.spans {
            prop_assert!(s.end - start <= m * (1.0 + 1e-12) + 1e-12);
        }
        // Task times never exceed the makespan.
        for name in trace.task_names() {
            prop_assert!(trace.task_time(&name).unwrap() <= m * (1.0 + 1e-12) + 1e-12);
        }
    }

    #[test]
    fn characterization_volume_conservation(trace in traces()) {
        let wf = characterize(&trace, &Structure::new(8.0, 4.0, 2)).unwrap();
        // System volumes equal the trace's per-resource sums.
        let sys = trace.system_bytes();
        for (id, bytes) in &wf.system_volumes {
            let expected = sys[id.as_str()];
            prop_assert!((bytes.get() - expected).abs() <= 1e-6 * expected.max(1.0));
        }
        prop_assert_eq!(wf.system_volumes.len(), sys.len());
        // Total flops are conserved up to the per-node / per-slot split:
        // sum over spans of flops/nodes/slots.
        let expected: f64 = trace
            .spans
            .iter()
            .map(|s| match s.kind {
                SpanKind::Compute { flops } => flops / s.nodes as f64 / 4.0,
                _ => 0.0,
            })
            .sum();
        let got = wf
            .node_volumes
            .get("compute")
            .map_or(0.0, |w| w.magnitude());
        prop_assert!((got - expected).abs() <= 1e-6 * expected.max(1.0));
    }
}
