//! Property-based tests for DAG invariants.

use proptest::prelude::*;
use wrm_dag::generate::random_layered;
use wrm_dag::Dag;

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
}
