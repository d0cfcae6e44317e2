//! Differential test of task-tree extraction.
//!
//! `TaskTree::extract` resolves a target's scope through the schema's
//! precomputed indexes (`TaskSchema::input_cone`). The reference here
//! derives the same tree from first principles on the schema graph: the
//! full topological order of `SchemaGraph::dag()` intersected with the
//! DAG's input cone of the target node. For every example schema and
//! for random schemas, over every class, activity and tool name plus an
//! unknown one, the two must agree on the activities and their order,
//! each activity's inputs, output and direct consumers, and the
//! primary inputs — and must reject exactly the same targets.
//!
//! The memoized path is checked alongside: once planning has memoized
//! a tree, `Hercules::extract_task_tree` (also on a clone of the
//! manager) must equal a cold extraction.

use harness::prelude::*;
use hercules::{Hercules, HerculesError, TaskTree};
use schema::{examples, EntityKind, SchemaGraph, SchemaNode, TaskSchema, TaskSchemaBuilder};
use simtools::{workload::Team, ToolLibrary};

/// The tree the reference derives for one target.
#[derive(Debug, PartialEq)]
struct Expected {
    activities: Vec<String>,
    inputs: Vec<Vec<String>>,
    outputs: Vec<String>,
    consumers: Vec<Vec<String>>,
    primary_inputs: Vec<String>,
}

/// Graph-based reference extraction; `None` where the target names no
/// scope.
fn reference(schema: &TaskSchema, target: &str) -> Option<Expected> {
    let graph = SchemaGraph::for_schema(schema);
    let dag = graph.dag();
    let root = graph
        .data_node(target)
        .or_else(|| graph.activity_node(target))?;
    let cone = dag.input_cone(&[root]);
    let activities: Vec<String> = dag
        .topological_order()
        .expect("schema graphs are acyclic")
        .into_iter()
        .filter(|id| cone.contains(id))
        .filter_map(|id| match dag.node_weight(id) {
            Some(SchemaNode::Activity(name)) => Some(name.clone()),
            _ => None,
        })
        .collect();
    if activities.is_empty() {
        return None;
    }
    let rule = |a: &str| schema.rule(a).expect("graph activities are rules");
    let inputs: Vec<Vec<String>> = activities
        .iter()
        .map(|a| rule(a).inputs().to_vec())
        .collect();
    let outputs: Vec<String> = activities
        .iter()
        .map(|a| rule(a).output().to_owned())
        .collect();
    let consumers = outputs
        .iter()
        .map(|out| {
            activities
                .iter()
                .zip(&inputs)
                .filter(|(_, ins)| ins.contains(out))
                .map(|(a, _)| a.clone())
                .collect()
        })
        .collect();
    let mut primary_inputs: Vec<String> = Vec::new();
    for class in inputs.iter().flatten() {
        let node = graph.data_node(class).expect("inputs are data classes");
        if dag.in_degree(node) == 0 && !primary_inputs.contains(class) {
            primary_inputs.push(class.clone());
        }
    }
    Some(Expected {
        activities,
        inputs,
        outputs,
        consumers,
        primary_inputs,
    })
}

/// The same view of an extracted tree.
fn observed(tree: &TaskTree) -> Expected {
    let activities = tree.activities().to_vec();
    for (i, a) in activities.iter().enumerate() {
        assert_eq!(tree.index_of(a), Some(i), "index of {a}");
        assert_eq!(tree.inputs_of(a), tree.inputs_at(i));
        assert_eq!(tree.output_of(a), tree.output_at(i));
        let by_position: Vec<&str> = tree
            .consumers_at(i)
            .iter()
            .map(|&j| activities[j].as_str())
            .collect();
        assert_eq!(tree.consumers_of_output(a), by_position);
    }
    Expected {
        inputs: (0..tree.len())
            .map(|i| tree.inputs_at(i).to_vec())
            .collect(),
        outputs: (0..tree.len())
            .map(|i| tree.output_at(i).to_owned())
            .collect(),
        consumers: activities
            .iter()
            .map(|a| {
                tree.consumers_of_output(a)
                    .into_iter()
                    .map(str::to_owned)
                    .collect()
            })
            .collect(),
        primary_inputs: tree.primary_inputs().to_vec(),
        activities,
    }
}

/// Every class and activity name of `schema`, plus one unknown name.
fn targets(schema: &TaskSchema) -> Vec<String> {
    let mut names: Vec<String> = schema
        .classes()
        .iter()
        .map(|c| c.name().to_owned())
        .chain(schema.rules().iter().map(|r| r.activity().to_owned()))
        .collect();
    names.push("no_such_target".to_owned());
    names
}

/// Checks extraction against the reference for every target; returns
/// how many targets named a scope.
fn check_schema(schema: &TaskSchema) -> usize {
    let mut scoped = 0;
    for target in targets(schema) {
        match (
            TaskTree::extract(schema, &target),
            reference(schema, &target),
        ) {
            (Ok(tree), Some(expected)) => {
                assert_eq!(tree.target(), target);
                assert_eq!(observed(&tree), expected, "target {target}");
                scoped += 1;
            }
            (Err(HerculesError::UnknownTarget(t)), None) => assert_eq!(t, target),
            (got, expected) => panic!(
                "target {target}: extract gave {got:?}, reference {}",
                if expected.is_some() { "a tree" } else { "none" }
            ),
        }
    }
    scoped
}

#[test]
fn extraction_matches_graph_reference_on_examples() {
    let schemas = [
        examples::circuit_design(),
        examples::asic_flow(),
        examples::board_flow(),
        examples::soc_program(),
        examples::pipeline(1),
        examples::pipeline(25),
        examples::layered(1, 1, 1),
        examples::layered(3, 4, 2),
        examples::layered(6, 16, 3),
    ];
    for schema in &schemas {
        let scoped = check_schema(schema);
        // Every activity and every produced class names a scope.
        assert!(scoped >= 2 * schema.rules().len(), "{}", schema.name());
    }
}

/// A random valid schema from `seed`: data classes declared in shuffled
/// order, each produced (or not) from classes earlier in a random
/// permutation, rules declared in shuffled order, and activity names
/// that sometimes reuse a data-class or tool name.
fn random_schema(n: usize, seed: u64) -> TaskSchema {
    let mut rng = SplitMix64::new(seed);
    let shuffle = |v: &mut Vec<usize>, rng: &mut SplitMix64| {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
    };
    let mut perm: Vec<usize> = (0..n).collect();
    shuffle(&mut perm, &mut rng);
    let mut declared: Vec<usize> = (0..n).collect();
    shuffle(&mut declared, &mut rng);
    let mut builder = TaskSchemaBuilder::new("random");
    for &i in &declared {
        builder = builder
            .class(format!("d{i}"), EntityKind::Data)
            .class(format!("t{i}"), EntityKind::Tool);
    }
    let mut rules = Vec::new();
    for (k, &class) in perm.iter().enumerate() {
        // About a third of the classes are designer-supplied.
        if rng.next_below(3) == 0 {
            continue;
        }
        let inputs: Vec<String> = perm[..k]
            .iter()
            .filter(|_| rng.next_below(3) == 0)
            .map(|&j| format!("d{j}"))
            .collect();
        let activity = match rng.next_below(4) {
            0 => format!("d{}", rng.next_below(n as u64)),
            1 => format!("t{class}"),
            _ => format!("A{class}"),
        };
        rules.push((activity, class, inputs));
    }
    // Activity names must be unique: keep the first of each name.
    let mut seen = std::collections::HashSet::new();
    rules.retain(|(activity, _, _)| seen.insert(activity.clone()));
    if rules.is_empty() {
        rules.push((format!("A{}", perm[0]), perm[0], Vec::new()));
    }
    let mut order: Vec<usize> = (0..rules.len()).collect();
    shuffle(&mut order, &mut rng);
    for &r in &order {
        let (activity, class, inputs) = &rules[r];
        let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        builder = builder.rule(
            activity.clone(),
            format!("d{class}"),
            format!("t{}", rng.next_below(n as u64)),
            &inputs,
        );
    }
    builder.build().expect("generated schema is valid")
}

harness::props! {
    config(cases = 96);

    fn extraction_matches_graph_reference_on_random_schemas(
        n in 1usize..14,
        seed in any_u64(),
    ) {
        let schema = random_schema(n, seed);
        prop_assert!(check_schema(&schema) >= schema.rules().len());
    }
}

#[test]
fn memoized_tree_equals_cold_extraction() {
    let schema = examples::asic_flow();
    let mut h = Hercules::new(
        schema.clone(),
        ToolLibrary::standard(),
        Team::of_size(3),
        11,
    );
    // Before any pass: a cold extraction.
    let cold = TaskTree::extract(&schema, "signoff_report").unwrap();
    assert_eq!(h.extract_task_tree("signoff_report").unwrap(), cold);
    // Planning, execution and replanning memoize their trees.
    h.plan("signoff_report").unwrap();
    h.execute("netlist").unwrap();
    h.replan("signoff_report").unwrap();
    for target in ["signoff_report", "netlist"] {
        let cold = TaskTree::extract(&schema, target).unwrap();
        assert_eq!(h.extract_task_tree(target).unwrap(), cold);
        assert_eq!(h.clone().extract_task_tree(target).unwrap(), cold);
    }
    // The memo never changes answers for targets it does not hold.
    assert!(matches!(
        h.extract_task_tree("no_such_target"),
        Err(HerculesError::UnknownTarget(_))
    ));
    assert_eq!(
        h.extract_task_tree("rtl").unwrap(),
        TaskTree::extract(&schema, "rtl").unwrap()
    );
    // A clone plans from the memo it carries exactly as the original.
    let mut twin = h.clone();
    let a = h.replan("signoff_report").unwrap();
    let b = twin.replan("signoff_report").unwrap();
    assert_eq!(a.project_finish, b.project_finish);
    assert_eq!(h.db().dump(), twin.db().dump());
}
