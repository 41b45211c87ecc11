//! Property-based tests for DAG invariants and the list scheduler.

use proptest::prelude::*;
use wrm_dag::generate::random_layered;
use wrm_dag::{list_schedule, Dag, GanttChart};

prop_compose! {
    fn dag_strategy()(
        seed in any::<u64>(),
        layers in 1usize..8,
        width in 1usize..7,
        nodes in 1u64..12,
    ) -> Dag {
        random_layered(seed, layers, width, nodes, 100.0).unwrap()
    }
}

proptest! {
    #[test]
    fn topo_order_respects_every_edge(dag in dag_strategy()) {
        let order = dag.topo_order().unwrap();
        prop_assert_eq!(order.len(), dag.len());
        let mut pos = vec![0usize; dag.len()];
        for (i, id) in order.iter().enumerate() {
            pos[id.0] = i;
        }
        for id in dag.task_ids() {
            for &s in dag.successors(id) {
                prop_assert!(pos[id.0] < pos[s.0]);
            }
        }
    }

    #[test]
    fn levels_strictly_increase_along_edges(dag in dag_strategy()) {
        let levels = dag.levels().unwrap();
        for id in dag.task_ids() {
            for &s in dag.successors(id) {
                prop_assert!(levels[s.0] > levels[id.0]);
            }
        }
    }

    #[test]
    fn critical_path_bounds(dag in dag_strategy()) {
        let (path, total) = dag.critical_path().unwrap();
        // The critical path is a real dependency chain.
        for w in path.windows(2) {
            prop_assert!(dag.successors(w[0]).contains(&w[1]));
        }
        // Its length is bounded by any single task below and the serial
        // sum above.
        let max_task = dag
            .tasks()
            .iter()
            .map(|t| t.duration)
            .fold(0.0f64, f64::max);
        prop_assert!(total >= max_task - 1e-9);
        prop_assert!(total <= dag.total_duration() + 1e-9);
    }

    #[test]
    fn schedule_invariants(dag in dag_strategy(), extra in 0u64..32) {
        let pool = dag.max_task_nodes().max(1) + extra;
        let sched = list_schedule(&dag, pool).unwrap();

        // Every task is scheduled exactly once with its own duration.
        prop_assert_eq!(sched.spans.len(), dag.len());
        for span in &sched.spans {
            let t = dag.task(span.task);
            prop_assert!((span.duration() - t.duration).abs() < 1e-9);
            prop_assert_eq!(span.nodes, t.nodes);
            prop_assert!(span.start >= 0.0);
        }

        // Dependencies respected.
        for id in dag.task_ids() {
            for &s in dag.successors(id) {
                prop_assert!(sched.spans[s.0].start >= sched.spans[id.0].end - 1e-9);
            }
        }

        // Node capacity never exceeded: check at every span start.
        for probe in &sched.spans {
            let t = probe.start;
            let in_use: u64 = sched
                .spans
                .iter()
                .filter(|s| s.start <= t + 1e-12 && s.end > t + 1e-12)
                .map(|s| s.nodes)
                .sum();
            prop_assert!(in_use <= pool, "in_use {} > pool {}", in_use, pool);
        }

        // Makespan is bounded below by the critical path and by the
        // node-seconds / pool "area" bound, and above by serial execution.
        let (_, cp) = dag.critical_path().unwrap();
        prop_assert!(sched.makespan >= cp - 1e-9);
        prop_assert!(sched.makespan >= dag.total_node_seconds() / pool as f64 - 1e-9);
        prop_assert!(sched.makespan <= dag.total_duration() + 1e-9);

        // Utilization in [0, 1].
        let u = sched.utilization();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
    }

    #[test]
    fn gantt_covers_every_task(dag in dag_strategy()) {
        let pool = dag.max_task_nodes().max(1) * 4;
        let sched = list_schedule(&dag, pool).unwrap();
        let g = GanttChart::build(&dag, &sched).unwrap();
        prop_assert_eq!(g.rows.len(), dag.len());
        prop_assert!((g.makespan - sched.makespan).abs() < 1e-12);
        // Critical-path rows exist exactly for the critical path.
        let marked = g.rows.iter().filter(|r| r.on_critical_path).count();
        prop_assert_eq!(marked, g.critical_path.len());
        // Coverage cannot exceed 1 by more than float noise when the pool
        // is wide enough to start critical tasks immediately... it can,
        // in general, exceed 1 only when CP time > makespan, impossible:
        prop_assert!(g.critical_path_coverage() <= 1.0 + 1e-9);
    }

    #[test]
    fn wider_pools_never_hurt_fifo_makespan_on_bags(
        n in 1usize..40,
        dur in 1.0f64..50.0,
        nodes in 1u64..8,
        pool1 in 1u64..64,
        pool2 in 1u64..64,
    ) {
        // Monotonicity is guaranteed for independent tasks (no dependency
        // anomalies possible).
        let dag = wrm_dag::generate::bag_of_tasks(n, nodes, dur).unwrap();
        if dag.max_task_nodes() > pool1.min(pool2) {
            return Ok(()); // task does not fit the smaller pool
        }
        let small = pool1.min(pool2);
        let large = pool1.max(pool2);
        let ms_small = list_schedule(&dag, small).unwrap().makespan;
        let ms_large = list_schedule(&dag, large).unwrap().makespan;
        prop_assert!(ms_large <= ms_small + 1e-9);
    }
}
