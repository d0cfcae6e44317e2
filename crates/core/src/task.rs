use std::collections::HashMap;

use schedule::{ActivityId, ScheduleError, ScheduleNetwork, WorkDays};
use schema::TaskSchema;

use crate::error::HerculesError;

/// A task tree extracted for a target: the activities in the target's
/// input cone, in dependency (post-order) order, with their data
/// wiring.
///
/// "A user prepares a task for execution by first extracting a task
/// tree that covers the scope of the intended task" (§IV-A). The same
/// tree serves both schedule planning and execution — that sharing is
/// the point of the integrated system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTree {
    target: String,
    /// Activities in dependency order (inputs before outputs).
    activities: Vec<String>,
    /// Activity name -> position in `activities`.
    index_of: HashMap<String, usize>,
    /// Per activity (by position): the data classes it consumes.
    inputs: Vec<Vec<String>>,
    /// Per activity (by position): the data class it produces.
    outputs: Vec<String>,
    /// Per activity (by position): positions of the activities its
    /// output feeds directly, ascending. Precomputed so execution and
    /// planning never re-derive the adjacency by scanning.
    consumers: Vec<Vec<usize>>,
    /// Data classes with no producing activity — designer-supplied.
    primary_inputs: Vec<String>,
}

impl TaskTree {
    /// Extracts the tree covering `target` (a data class or activity
    /// name) from the schema.
    ///
    /// # Errors
    ///
    /// [`HerculesError::UnknownTarget`] if `target` names nothing.
    pub fn extract(schema: &TaskSchema, target: &str) -> Result<Self, HerculesError> {
        let cone = schema.input_cone(target);
        if cone.is_empty() {
            return Err(HerculesError::UnknownTarget(target.to_owned()));
        }
        let n = cone.len();
        let mut activities = Vec::with_capacity(n);
        let mut inputs = Vec::with_capacity(n);
        let mut outputs = Vec::with_capacity(n);
        let mut primary = Vec::new();
        for &r in &cone {
            let rule = &schema.rules()[r];
            activities.push(rule.activity().to_owned());
            inputs.push(rule.inputs().to_vec());
            outputs.push(rule.output().to_owned());
            for input in rule.inputs() {
                if schema.producer_of(input).is_none() && !primary.contains(input) {
                    primary.push(input.clone());
                }
            }
        }
        let index_of: HashMap<String, usize> = activities
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), i))
            .collect();
        // Direct consumers by position: resolve each input class to its
        // in-scope producer once, while the edge list is in hand.
        let producer_of: HashMap<&str, usize> = outputs
            .iter()
            .enumerate()
            .map(|(i, o)| (o.as_str(), i))
            .collect();
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, ins) in inputs.iter().enumerate() {
            for class in ins {
                if let Some(&i) = producer_of.get(class.as_str()) {
                    if consumers[i].last() != Some(&j) {
                        consumers[i].push(j);
                    }
                }
            }
        }
        Ok(TaskTree {
            target: target.to_owned(),
            activities,
            index_of,
            inputs,
            outputs,
            consumers,
            primary_inputs: primary,
        })
    }

    /// The target this tree was extracted for.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Activities in dependency order — the order the post-order
    /// traversal visits them for both planning and execution.
    pub fn activities(&self) -> &[String] {
        &self.activities
    }

    /// Number of activities in scope.
    pub fn len(&self) -> usize {
        self.activities.len()
    }

    /// Returns `true` if the tree is empty (never: extraction fails on
    /// empty scopes).
    pub fn is_empty(&self) -> bool {
        self.activities.is_empty()
    }

    /// The position of `activity` in dependency order, if in scope.
    pub fn index_of(&self, activity: &str) -> Option<usize> {
        self.index_of.get(activity).copied()
    }

    /// Data classes `activity` consumes.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is not in this tree.
    pub fn inputs_of(&self, activity: &str) -> &[String] {
        &self.inputs[self.index_of[activity]]
    }

    /// Data classes the activity at position `i` consumes.
    pub fn inputs_at(&self, i: usize) -> &[String] {
        &self.inputs[i]
    }

    /// The data class `activity` produces.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is not in this tree.
    pub fn output_of(&self, activity: &str) -> &str {
        &self.outputs[self.index_of[activity]]
    }

    /// The data class the activity at position `i` produces.
    pub fn output_at(&self, i: usize) -> &str {
        &self.outputs[i]
    }

    /// Whether `activity` is part of this tree.
    pub fn contains(&self, activity: &str) -> bool {
        self.index_of.contains_key(activity)
    }

    /// Designer-supplied data classes the tree needs (no producer in
    /// the schema), e.g. the paper's `stimuli`.
    pub fn primary_inputs(&self) -> &[String] {
        &self.primary_inputs
    }

    /// The activities of this tree that `activity`'s output feeds,
    /// directly.
    pub fn consumers_of_output(&self, activity: &str) -> Vec<&str> {
        let Some(i) = self.index_of(activity) else {
            return Vec::new();
        };
        self.consumers[i]
            .iter()
            .map(|&j| self.activities[j].as_str())
            .collect()
    }

    /// Positions of the activities fed directly by the output of the
    /// activity at position `i`, ascending.
    pub fn consumers_at(&self, i: usize) -> &[usize] {
        &self.consumers[i]
    }

    /// The precedence network over the activities at positions `scope`
    /// (ascending), `scope[k]` lasting `durations[k]`; returns it with
    /// the id of each scope entry. Activities are added in scope order
    /// and edges producer by producer, consumers ascending, so the
    /// network's tie-breaks are the same for planning, forecasting and
    /// the engine's dispatch metrics.
    pub(crate) fn precedence_network(
        &self,
        scope: &[usize],
        durations: &[WorkDays],
    ) -> Result<(ScheduleNetwork, Vec<ActivityId>), ScheduleError> {
        let mut net = ScheduleNetwork::new();
        let mut id_at = vec![None; self.len()];
        let mut ids = Vec::with_capacity(scope.len());
        for (&i, &duration) in scope.iter().zip(durations) {
            let id = net.add_activity(self.activities[i].clone(), duration)?;
            id_at[i] = Some(id);
            ids.push(id);
        }
        for (&i, &from) in scope.iter().zip(&ids) {
            for &j in &self.consumers[i] {
                if let Some(to) = id_at[j] {
                    net.add_precedence(from, to)?;
                }
            }
        }
        Ok((net, ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::examples;

    #[test]
    fn extract_full_circuit_tree() {
        let schema = examples::circuit_design();
        let tree = TaskTree::extract(&schema, "performance").unwrap();
        assert_eq!(tree.target(), "performance");
        assert_eq!(tree.activities(), ["Create", "Simulate"]);
        assert_eq!(tree.inputs_of("Simulate"), ["netlist", "stimuli"]);
        assert_eq!(tree.output_of("Create"), "netlist");
        assert_eq!(tree.primary_inputs(), ["stimuli"]);
        assert_eq!(tree.len(), 2);
        assert!(!tree.is_empty());
    }

    #[test]
    fn extract_partial_scope() {
        let schema = examples::circuit_design();
        let tree = TaskTree::extract(&schema, "netlist").unwrap();
        assert_eq!(tree.activities(), ["Create"]);
        assert!(tree.primary_inputs().is_empty());
        assert!(!tree.contains("Simulate"));
    }

    #[test]
    fn extract_by_activity_name() {
        let schema = examples::asic_flow();
        let tree = TaskTree::extract(&schema, "Synthesize").unwrap();
        assert!(tree.contains("WriteRtl"));
        assert!(tree.contains("CaptureSpec"));
        assert!(!tree.contains("Route"));
    }

    #[test]
    fn unknown_target_rejected() {
        let schema = examples::circuit_design();
        assert!(matches!(
            TaskTree::extract(&schema, "gds"),
            Err(HerculesError::UnknownTarget(_))
        ));
    }

    #[test]
    fn consumers_of_output() {
        let schema = examples::asic_flow();
        let tree = TaskTree::extract(&schema, "signoff_report").unwrap();
        let consumers = tree.consumers_of_output("Synthesize");
        assert_eq!(consumers, vec!["Floorplan"]);
        assert!(tree.consumers_of_output("nonexistent").is_empty());
    }

    #[test]
    fn dependency_order_holds() {
        let schema = examples::asic_flow();
        let tree = TaskTree::extract(&schema, "signoff_report").unwrap();
        let pos = |a: &str| tree.activities().iter().position(|x| x == a).unwrap();
        assert!(pos("CaptureSpec") < pos("WriteRtl"));
        assert!(pos("WriteRtl") < pos("Synthesize"));
        assert!(pos("Route") < pos("Signoff"));
    }
}
