//! Property-based tests for DAG invariants.

use proptest::prelude::*;
use wrm_dag::generate::random_layered;
use wrm_dag::{Dag, DagError, TaskId};

/// The linear scan the name index replaces.
fn scan(dag: &Dag, name: &str) -> Option<TaskId> {
    dag.tasks().iter().position(|t| t.name == name).map(TaskId)
}

/// Adds `names` in order, asserting each outcome against the scan.
fn add_all(dag: &mut Dag, names: &[String]) -> Result<(), TestCaseError> {
    for name in names {
        let before = scan(dag, name);
        match dag.add_task(name.clone(), 1, 1.0) {
            Ok(id) => {
                prop_assert_eq!(before, None);
                prop_assert_eq!(id, TaskId(dag.len() - 1));
            }
            Err(e) => {
                prop_assert_eq!(e, DagError::DuplicateName(name.clone()));
                prop_assert!(before.is_some());
            }
        }
    }
    Ok(())
}

/// Every name in `0..universe` resolves as the scan does.
fn lookups_agree(dag: &Dag, universe: u8) -> Result<(), TestCaseError> {
    for k in 0..universe {
        let name = format!("t{k}");
        prop_assert_eq!(dag.task_by_name(&name), scan(dag, &name));
    }
    Ok(())
}

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
    fn name_index_agrees_with_a_linear_scan(
        first in prop::collection::vec(0u8..24, 0..60),
        more in prop::collection::vec(0u8..32, 0..30),
    ) {
        let names = |ks: &[u8]| -> Vec<String> { ks.iter().map(|k| format!("t{k}")).collect() };
        let mut dag = Dag::new("names");
        add_all(&mut dag, &names(&first))?;
        lookups_agree(&dag, 32)?;
        // A clone carries its index: lookups and duplicate checks on the
        // clone agree with the scan, and the original is untouched.
        let mut copy = dag.clone();
        lookups_agree(&copy, 32)?;
        add_all(&mut copy, &names(&more))?;
        lookups_agree(&copy, 32)?;
        lookups_agree(&dag, 32)?;
    }
}
