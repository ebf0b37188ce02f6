//! The paper's per-activity time budget (Query 1, Figs. 5/6/10), read
//! through the public query surface and turned into per-layer numbers.

use std::collections::BTreeMap;

use provenance::Value;

/// The ten SciDock activities, as `hactivity.tag` spells them.
pub const ACTIVITIES: [&str; 10] = [
    "babel",
    "prepligand",
    "prepreceptor",
    "autogpf4",
    "autogrid4",
    "autodpf4",
    "autodock4",
    "vinaconfig",
    "vina",
    "dockfilter",
];

/// Query 1 restricted to FINISHED rows: per activity, how many activations
/// ran and the sum of their wall times.
pub const BUDGET_SQL: &str = "SELECT a.tag, count(*), \
     sum(extract('epoch' from (t.endtime-t.starttime))) \
     FROM hactivity a, hactivation t \
     WHERE a.actid = t.actid AND t.status = 'FINISHED' \
     GROUP BY a.tag ORDER BY a.tag";

/// Busy time and activation count per activity.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Budget {
    /// tag → (FINISHED activations, Σ(endtime − starttime) seconds).
    pub per_activity: BTreeMap<String, (u64, f64)>,
}

impl Budget {
    /// Parse the rows of [`BUDGET_SQL`]. Counts may arrive as `Int` or as
    /// `Float` (the wire and the paged store differ); a row of any other
    /// shape is an error, not a silent zero.
    pub fn parse(rows: &[Vec<Value>]) -> Result<Budget, String> {
        let mut per_activity = BTreeMap::new();
        for row in rows {
            let [tag, count, busy] = row.as_slice() else {
                return Err(format!("budget row has {} cells, expected 3", row.len()));
            };
            let tag = tag.as_str().ok_or_else(|| format!("budget tag is {tag:?}"))?;
            let count = count.as_f64().ok_or_else(|| format!("{tag}: count is {count:?}"))?;
            // an activity whose rows all lack times sums to NULL
            let busy = if busy.is_null() { Some(0.0) } else { busy.as_f64() }
                .ok_or_else(|| format!("{tag}: busy time is {busy:?}"))?;
            if count < 0.0 || count.fract() != 0.0 || busy < 0.0 {
                return Err(format!("{tag}: count {count} / busy {busy} out of range"));
            }
            let slot = per_activity.entry(tag.to_string()).or_insert((0, 0.0));
            slot.0 += count as u64;
            slot.1 += busy;
        }
        Ok(Budget { per_activity })
    }

    /// Busy seconds of one activity (0 when it never ran).
    pub fn busy_s(&self, tag: &str) -> f64 {
        self.per_activity.get(tag).map_or(0.0, |v| v.1)
    }

    /// FINISHED activations over all activities.
    pub fn count(&self) -> u64 {
        self.per_activity.values().map(|v| v.0).sum()
    }

    /// Σ busy seconds over all activities.
    pub fn total_busy_s(&self) -> f64 {
        self.per_activity.values().map(|v| v.1).sum()
    }

    /// Share of `workers × tet_s` the workers spent inside activities.
    pub fn utilisation(&self, workers: usize, tet_s: f64) -> f64 {
        self.total_busy_s() / (workers as f64 * tet_s)
    }

    /// Wall time no activity accounts for: engine thread, store lock waits,
    /// idle workers.
    pub fn unexplained_s(&self, workers: usize, tet_s: f64) -> f64 {
        tet_s - self.total_busy_s() / workers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parses_int_and_float_counts_and_sums_repeated_tags() {
        let rows = vec![
            vec![Value::from("autodock4"), Value::Int(10), Value::Float(4.0)],
            vec![Value::from("babel"), Value::Float(20.0), Value::Float(0.5)],
            // the same tag from a second campaign folds in
            vec![Value::from("babel"), Value::Int(4), Value::Float(0.25)],
            vec![Value::from("dockfilter"), Value::Int(3), Value::Null],
        ];
        let b = Budget::parse(&rows).unwrap();
        assert_eq!(b.per_activity["babel"], (24, 0.75));
        assert_eq!(b.busy_s("autodock4"), 4.0);
        assert_eq!(b.busy_s("vina"), 0.0);
        assert_eq!(b.busy_s("dockfilter"), 0.0);
        assert_eq!(b.count(), 37);
        assert_eq!(b.total_busy_s(), 4.75);
        // 2 workers, 5 s wall: 4.75 of 10 worker-seconds were busy
        assert_eq!(b.utilisation(2, 5.0), 0.475);
        assert_eq!(b.unexplained_s(2, 5.0), 5.0 - 2.375);
    }

    #[test]
    fn malformed_budget_rows_are_errors() {
        assert!(Budget::parse(&[vec![Value::from("babel"), Value::Int(1)]]).is_err());
        assert!(Budget::parse(&[vec![Value::Int(1), Value::Int(1), Value::Float(1.0)]]).is_err());
        assert!(
            Budget::parse(&[vec![Value::from("x"), Value::from("y"), Value::Float(1.0)]]).is_err()
        );
        assert!(
            Budget::parse(&[vec![Value::from("x"), Value::Float(1.5), Value::Float(1.0)]]).is_err()
        );
        assert_eq!(Budget::parse(&[]).unwrap().count(), 0);
    }
}
