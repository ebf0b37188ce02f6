//! The relational workflow algebra (Ogasawara et al., VLDB 2011) that
//! SciCumulus executes: activities are operators over relations, and every
//! tuple of an input relation becomes an independent *activation*.

use provenance::Value;
use serde::{Deserialize, Serialize};

/// One tuple of a workflow relation.
pub type Tuple = Vec<Value>;

/// A workflow relation: named, typed columns + tuples.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Column names.
    pub columns: Vec<String>,
    /// Tuples, each of the same arity as `columns`.
    pub tuples: Vec<Tuple>,
}

impl Relation {
    /// New empty relation with the given column names.
    pub fn new(columns: &[&str]) -> Relation {
        Relation { columns: columns.iter().map(|s| s.to_string()).collect(), tuples: Vec::new() }
    }

    /// Add a tuple.
    ///
    /// # Panics
    /// Panics on arity mismatch (a workflow construction bug).
    pub fn push(&mut self, tuple: Tuple) {
        assert_eq!(tuple.len(), self.columns.len(), "tuple arity mismatch");
        self.tuples.push(tuple);
    }

    /// Index of a column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Value of `column` in `tuple` (both must exist).
    pub fn value<'a>(&self, tuple: &'a Tuple, column: &str) -> Option<&'a Value> {
        self.column(column).map(|i| &tuple[i])
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no tuples are present.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// The algebraic operator of an activity — determines the ratio between
/// input tuples and activations/output tuples.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Operator {
    /// 1 input tuple → 1 output tuple (one activation per tuple).
    Map,
    /// 1 input tuple → N output tuples (one activation per tuple).
    SplitMap,
    /// Groups of input tuples (by key columns) → 1 output tuple per group.
    Reduce {
        /// Grouping key column names.
        keys: Vec<String>,
    },
    /// 1 input tuple → 0 or 1 output tuples.
    Filter,
    /// Relational query over a single input relation (one activation total).
    SRQuery,
    /// Relational query over multiple input relations (one activation total).
    MRQuery,
}

impl Operator {
    /// Short name used in provenance records (`acttype` column).
    pub fn name(&self) -> &'static str {
        match self {
            Operator::Map => "Map",
            Operator::SplitMap => "SplitMap",
            Operator::Reduce { .. } => "Reduce",
            Operator::Filter => "Filter",
            Operator::SRQuery => "SRQuery",
            Operator::MRQuery => "MRQuery",
        }
    }

    /// Partition an input relation into activation inputs.
    ///
    /// * Map/SplitMap/Filter: one activation per tuple.
    /// * Reduce: one activation per distinct key combination, receiving all
    ///   tuples of the group (in input order).
    /// * SRQuery/MRQuery: a single activation receiving every tuple.
    pub fn partition(&self, rel: &Relation) -> Vec<Vec<Tuple>> {
        match self {
            Operator::Map | Operator::SplitMap | Operator::Filter => {
                rel.tuples.iter().map(|t| vec![t.clone()]).collect()
            }
            Operator::Reduce { keys } => {
                let idx: Vec<usize> = keys
                    .iter()
                    .map(|k| {
                        rel.column(k).unwrap_or_else(|| panic!("reduce key {k:?} not in relation"))
                    })
                    .collect();
                let mut order: Vec<String> = Vec::new();
                let mut groups: std::collections::HashMap<String, Vec<Tuple>> = Default::default();
                for t in &rel.tuples {
                    let key: String = idx.iter().map(|&i| format!("{}\u{1}", t[i])).collect();
                    groups
                        .entry(key.clone())
                        .or_insert_with(|| {
                            order.push(key.clone());
                            Vec::new()
                        })
                        .push(t.clone());
                }
                order.into_iter().map(|k| groups.remove(&k).expect("group present")).collect()
            }
            Operator::SRQuery | Operator::MRQuery => {
                if rel.tuples.is_empty() {
                    Vec::new()
                } else {
                    vec![rel.tuples.clone()]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        let mut r = Relation::new(&["receptor", "ligand", "size"]);
        r.push(vec!["1AEC".into(), "042".into(), Value::Int(100)]);
        r.push(vec!["1AEC".into(), "074".into(), Value::Int(100)]);
        r.push(vec!["2ACT".into(), "042".into(), Value::Int(250)]);
        r
    }

    #[test]
    fn relation_basics() {
        let r = rel();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.column("LIGAND"), Some(1));
        assert_eq!(r.column("nope"), None);
        assert_eq!(r.value(&r.tuples[2], "receptor"), Some(&Value::from("2ACT")));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut r = Relation::new(&["a", "b"]);
        r.push(vec![Value::Int(1)]);
    }

    #[test]
    fn map_partitions_per_tuple() {
        let r = rel();
        let parts = Operator::Map.partition(&r);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn filter_partitions_like_map() {
        assert_eq!(Operator::Filter.partition(&rel()).len(), 3);
        assert_eq!(Operator::SplitMap.partition(&rel()).len(), 3);
    }

    #[test]
    fn reduce_groups_by_key() {
        let r = rel();
        let op = Operator::Reduce { keys: vec!["receptor".into()] };
        let parts = op.partition(&r);
        assert_eq!(parts.len(), 2);
        // group order follows first appearance
        assert_eq!(parts[0].len(), 2, "1AEC group has two tuples");
        assert_eq!(parts[1].len(), 1);
    }

    #[test]
    fn reduce_multi_key() {
        let r = rel();
        let op = Operator::Reduce { keys: vec!["receptor".into(), "ligand".into()] };
        assert_eq!(op.partition(&r).len(), 3);
    }

    #[test]
    #[should_panic(expected = "not in relation")]
    fn reduce_unknown_key_panics() {
        let op = Operator::Reduce { keys: vec!["missing".into()] };
        op.partition(&rel());
    }

    #[test]
    fn queries_single_activation() {
        let r = rel();
        let parts = Operator::SRQuery.partition(&r);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 3);
        // empty input -> no activations at all
        let empty = Relation::new(&["x"]);
        assert!(Operator::MRQuery.partition(&empty).is_empty());
    }

    #[test]
    fn operator_names() {
        assert_eq!(Operator::Map.name(), "Map");
        assert_eq!(Operator::Reduce { keys: vec![] }.name(), "Reduce");
        assert_eq!(Operator::Filter.name(), "Filter");
    }
}
