//! The ready-driven pipelined dispatcher, extracted from the local backend
//! so every master shares one scheduling state machine: the in-process pool
//! backend ([`crate::localbackend`]) and the multi-process distributed
//! backend ([`crate::distbackend`]) both drive a [`PipelineState`] and only
//! differ in *where* a [`SubmitReq`] executes.
//!
//! The state machine is purely logical: it owns no threads and performs no
//! I/O. Callers feed it completions (`activity produced these tuples`) and
//! it answers with the next batch of ready activations: tuples flow
//! downstream the instant they exist, and barriers remain only where the
//! algebra requires the whole relation (`Reduce`, `SRQuery`, `MRQuery`).

use std::sync::Arc;

use telemetry::Telemetry;

use crate::algebra::{Operator, Relation, Tuple};
use crate::workflow::WorkflowDef;

/// One activation the dispatcher wants executed: `part` tuples of activity
/// `activity`, with `part_index` naming its working directory (arrival
/// order).
#[derive(Debug, Clone)]
pub(crate) struct SubmitReq {
    /// Index of the activity in the workflow definition.
    pub activity: usize,
    /// The activation's input tuples.
    pub part: Vec<Tuple>,
    /// Working-directory index (submission order within the activity).
    pub part_index: usize,
}

/// Dispatcher-side state of one activity.
struct ActState {
    /// `Reduce`/`SRQuery`/`MRQuery` need the whole input relation before
    /// partitioning; Map-like operators dispatch tuple-by-tuple.
    is_barrier_op: bool,
    /// Columns of this activity's *input* relation (upstream schema or the
    /// workflow input schema) — needed for route filtering and Reduce keys.
    input_columns: Vec<String>,
    /// Buffered input tuples (barrier operators only).
    buffer: Vec<Tuple>,
    /// When the first tuple was buffered (barrier operators only) — start
    /// of this activity's barrier-wait telemetry span.
    barrier_wait_start: Option<u64>,
    /// Upstream activities that have not closed yet.
    upstream_open: usize,
    /// Activations submitted but not yet completed.
    in_flight: usize,
    /// Next working-directory index (arrival order).
    next_part: usize,
    /// No more input will arrive (all upstreams closed + barrier flushed).
    input_done: bool,
    /// Output relation, filled in completion order.
    output: Relation,
    closed: bool,
}

/// The pipelined dispatcher state machine (see module docs).
///
/// Owns its workflow definition (`Arc`, cheap to share), so a pipeline can
/// outlive the scope that resolved the definition — a requirement for
/// [`crate::serve`], where campaigns are created dynamically at daemon
/// runtime and live in a long-running engine loop.
pub(crate) struct PipelineState {
    def: Arc<WorkflowDef>,
    tel: Telemetry,
    /// Successors with edge multiplicity (a duplicated dep feeds twice,
    /// just like `input_for`'s concatenation would).
    successors: Vec<Vec<usize>>,
    states: Vec<ActState>,
    /// Activities not yet closed; the run is done when this reaches zero.
    open: usize,
}

impl PipelineState {
    /// Build the dispatcher and seed it: source activities read the
    /// (route-filtered) workflow input. Returns the initial batch of ready
    /// activations. The definition must already be validated.
    pub fn new(
        def: Arc<WorkflowDef>,
        input: &Relation,
        tel: Telemetry,
    ) -> (PipelineState, Vec<SubmitReq>) {
        let n = def.activities.len();
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, deps) in def.deps.iter().enumerate() {
            for &d in deps {
                successors[d].push(i);
            }
        }
        let states: Vec<ActState> = (0..n)
            .map(|i| {
                let activity = &def.activities[i];
                let input_columns = if def.deps[i].is_empty() {
                    input.columns.clone()
                } else {
                    // input_for asserts upstreams share a schema; check the
                    // static column lists up front since we stream per-edge
                    let first = &def.activities[def.deps[i][0]].output_columns;
                    for &d in &def.deps[i] {
                        assert_eq!(
                            &def.activities[d].output_columns, first,
                            "activity {i}: upstream relations must share a schema"
                        );
                    }
                    first.clone()
                };
                ActState {
                    is_barrier_op: matches!(
                        activity.operator,
                        Operator::Reduce { .. } | Operator::SRQuery | Operator::MRQuery
                    ),
                    input_columns,
                    buffer: Vec::new(),
                    barrier_wait_start: None,
                    upstream_open: def.deps[i].len(),
                    in_flight: 0,
                    next_part: 0,
                    input_done: false,
                    output: Relation {
                        columns: activity.output_columns.clone(),
                        tuples: Vec::new(),
                    },
                    closed: false,
                }
            })
            .collect();
        let mut pipe = PipelineState { def, tel, successors, states, open: n };

        let mut reqs = Vec::new();
        let mut to_close: Vec<usize> = Vec::new();
        for i in 0..n {
            if pipe.def.deps[i].is_empty() {
                pipe.feed(i, input.tuples.clone(), &mut reqs);
                pipe.flush(i, &mut reqs);
                if pipe.states[i].in_flight == 0 {
                    to_close.push(i);
                }
            }
        }
        pipe.cascade(to_close, &mut reqs);
        (pipe, reqs)
    }

    /// Record that one activation of `activity` completed with these output
    /// tuples (empty for dropped/blacklisted activations), and return the
    /// activations that became ready as a result.
    pub fn on_completion(&mut self, activity: usize, tuples: &[Tuple]) -> Vec<SubmitReq> {
        let state = &mut self.states[activity];
        debug_assert!(state.in_flight > 0, "completion without a submission");
        state.in_flight -= 1;
        for t in tuples {
            assert_eq!(
                t.len(),
                state.output.columns.len(),
                "activity {} produced tuple of wrong arity",
                self.def.activities[activity].tag
            );
        }
        state.output.tuples.extend(tuples.iter().cloned());

        let mut reqs = Vec::new();
        // stream this activation's outputs straight into ready downstreams
        // (tuple-at-a-time operators start working on them immediately;
        // barrier operators buffer until this activity closes)
        if !tuples.is_empty() {
            for k in 0..self.successors[activity].len() {
                let d = self.successors[activity][k];
                self.feed(d, tuples.to_vec(), &mut reqs);
            }
        }
        let state = &self.states[activity];
        let mut to_close = Vec::new();
        if state.input_done && state.in_flight == 0 && !state.closed {
            to_close.push(activity);
        }
        self.cascade(to_close, &mut reqs);
        reqs
    }

    /// Have all activities closed?
    pub fn done(&self) -> bool {
        self.open == 0
    }

    /// Total activations submitted so far (all activities).
    pub fn submitted(&self) -> usize {
        self.states.iter().map(|s| s.next_part).sum()
    }

    /// The output relation of every activity, by activity index.
    pub fn into_outputs(self) -> Vec<Relation> {
        debug_assert!(self.open == 0, "outputs taken before the run closed");
        self.states.into_iter().map(|s| s.output).collect()
    }

    /// Deliver tuples to activity `i`, applying its route filter against its
    /// input schema exactly as `input_for` does on the assembled relation.
    fn feed(&mut self, i: usize, tuples: Vec<Tuple>, reqs: &mut Vec<SubmitReq>) {
        let state = &mut self.states[i];
        let mut accepted = tuples;
        if let Some((col, val)) = &self.def.activities[i].route {
            match state.input_columns.iter().position(|c| c.eq_ignore_ascii_case(col)) {
                Some(ci) => accepted.retain(|t| t[ci].sql_eq(val).unwrap_or(false)),
                None => accepted.clear(),
            }
        }
        if state.is_barrier_op {
            if state.barrier_wait_start.is_none() && !accepted.is_empty() {
                state.barrier_wait_start = Some(self.tel.now_ns());
            }
            state.buffer.extend(accepted);
        } else {
            // Map/SplitMap/Filter partition one activation per tuple, so
            // each tuple is ready the moment it arrives
            for t in accepted {
                Self::submit(state, i, vec![t], reqs);
            }
        }
    }

    /// When every upstream has closed: flush barrier operators (partition
    /// the buffered relation) and mark the input complete.
    fn flush(&mut self, i: usize, reqs: &mut Vec<SubmitReq>) {
        let state = &mut self.states[i];
        debug_assert!(!state.input_done);
        if state.is_barrier_op {
            // the span from "first tuple buffered" to "last upstream
            // closed" is exactly how long the algebra forced this
            // activity to wait at its barrier
            if let Some(start) = state.barrier_wait_start.take() {
                self.tel.record_span_at(
                    "barrier",
                    &format!("wait.{}", self.def.activities[i].tag),
                    None,
                    start,
                    self.tel.now_ns(),
                    Some("pipelined barrier operator waited for full input relation"),
                );
            }
            let rel = Relation {
                columns: state.input_columns.clone(),
                tuples: std::mem::take(&mut state.buffer),
            };
            for part in self.def.activities[i].operator.partition(&rel) {
                Self::submit(state, i, part, reqs);
            }
        }
        state.input_done = true;
    }

    fn submit(state: &mut ActState, i: usize, part: Vec<Tuple>, reqs: &mut Vec<SubmitReq>) {
        let j = state.next_part;
        state.next_part += 1;
        state.in_flight += 1;
        reqs.push(SubmitReq { activity: i, part, part_index: j });
    }

    /// Cascade closures; closing an activity may complete the input of (and
    /// immediately close) an empty downstream. Barrier flushes along the way
    /// append their submissions to `reqs`.
    fn cascade(&mut self, mut to_close: Vec<usize>, reqs: &mut Vec<SubmitReq>) {
        while let Some(i) = to_close.pop() {
            {
                let state = &mut self.states[i];
                debug_assert!(state.input_done && state.in_flight == 0 && !state.closed);
                state.closed = true;
            }
            self.open -= 1;
            // outputs were already streamed to successors as each
            // activation completed; closing only completes their input
            for k in 0..self.successors[i].len() {
                let d = self.successors[i][k];
                self.states[d].upstream_open -= 1;
                if self.states[d].upstream_open == 0 {
                    self.flush(d, reqs);
                    let dstate = &self.states[d];
                    if dstate.in_flight == 0 && !dstate.closed {
                        to_close.push(d);
                    }
                }
            }
        }
    }
}

/// Derive a stable key for one activation (provenance + failure rolls).
///
/// Single-tuple parts (Map/SplitMap/Filter activations) key on that tuple.
/// Multi-tuple parts (Reduce groups, query relations) must key *order-
/// insensitively*: a group is collected in completion order, which differs
/// from run to run, and the key feeds both resume lookups and failure-fate
/// rolls, which must agree across runs, thread counts and backends. They
/// get the smallest per-tuple render plus a digest over the sorted renders.
pub(crate) fn pair_key(tuples: &[Tuple]) -> String {
    match tuples {
        [] => String::from("<empty>"),
        [t] => tuple_key(t),
        many => {
            let mut keys: Vec<String> = many.iter().map(tuple_key).collect();
            keys.sort();
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for k in &keys {
                for b in k.as_bytes() {
                    h ^= *b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
                h = h.wrapping_mul(0x100_0000_01b3); // separator
            }
            let first = keys.swap_remove(0);
            format!("{first}*{h:016x}")
        }
    }
}

/// Render one tuple as a short key.
///
/// Integral floats render without the decimal point so that tuples resumed
/// from provenance (which stores all numerics as floats) key identically to
/// their original integer-typed versions.
fn tuple_key(t: &Tuple) -> String {
    let mut s = String::new();
    for (k, v) in t.iter().enumerate() {
        if k > 0 {
            s.push(':');
        }
        let text = match v {
            provenance::Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => {
                format!("{}", *f as i64)
            }
            other => other.to_string(),
        };
        // keep keys short: long values (file bodies) are truncated
        if text.len() > 24 {
            s.push_str(&text[..24]);
        } else {
            s.push_str(&text);
        }
    }
    s
}

/// Split a path into `(directory-with-trailing-slash, file name)`.
pub(crate) fn split_path(path: &str) -> (&str, &str) {
    match path.rfind('/') {
        Some(i) => (&path[..i + 1], &path[i + 1..]),
        None => ("", path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::Activity;
    use provenance::Value;
    use std::sync::Arc;

    fn ident() -> crate::workflow::ActivityFn {
        Arc::new(|t, _| Ok(t.to_vec()))
    }

    fn input(n: i64) -> Relation {
        let mut r = Relation::new(&["x"]);
        for k in 0..n {
            r.push(vec![Value::Int(k)]);
        }
        r
    }

    /// Drive a PipelineState synchronously with an identity executor and
    /// return the final outputs.
    fn drive(def: &WorkflowDef, input: &Relation) -> Vec<Relation> {
        let (mut pipe, mut queue) =
            PipelineState::new(Arc::new(def.clone()), input, Telemetry::disabled());
        while let Some(req) = queue.pop() {
            // identity semantics: every activation echoes its input part
            let more = pipe.on_completion(req.activity, &req.part);
            queue.extend(more);
        }
        assert!(pipe.done());
        pipe.into_outputs()
    }

    #[test]
    fn chain_streams_tuple_at_a_time() {
        let def = WorkflowDef {
            tag: "t".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![
                Activity::map("a", &["x"], ident()),
                Activity::map("b", &["x"], ident()),
            ],
            deps: vec![vec![], vec![0]],
        };
        let (mut pipe, reqs) = PipelineState::new(Arc::new(def), &input(3), Telemetry::disabled());
        // only the source is ready at seed time, one activation per tuple
        assert_eq!(reqs.len(), 3);
        assert!(reqs.iter().all(|r| r.activity == 0));
        assert_eq!(reqs.iter().map(|r| r.part_index).collect::<Vec<_>>(), vec![0, 1, 2]);
        // completing ONE source activation readies ONE downstream activation
        let next = pipe.on_completion(0, &reqs[0].part);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].activity, 1);
        assert!(!pipe.done());
    }

    #[test]
    fn barrier_operator_waits_for_all_upstreams() {
        let def = WorkflowDef {
            tag: "t".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![
                Activity::map("src", &["x"], ident()),
                Activity::map("all", &["x"], ident()).with_operator(Operator::SRQuery),
            ],
            deps: vec![vec![], vec![0]],
        };
        let (mut pipe, reqs) = PipelineState::new(Arc::new(def), &input(3), Telemetry::disabled());
        assert_eq!(reqs.len(), 3);
        // completing two of three source activations releases nothing
        assert!(pipe.on_completion(0, &reqs[0].part).is_empty());
        assert!(pipe.on_completion(0, &reqs[1].part).is_empty());
        // the third closes the source and flushes the barrier: one
        // activation over the whole 3-tuple relation
        let next = pipe.on_completion(0, &reqs[2].part);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].activity, 1);
        assert_eq!(next[0].part.len(), 3);
        assert!(pipe.on_completion(1, &next[0].part).is_empty());
        assert!(pipe.done());
        assert_eq!(pipe.submitted(), 4);
    }

    #[test]
    fn diamond_with_route_filters_and_empty_close_cascade() {
        let def = WorkflowDef {
            tag: "d".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![
                Activity::map("src_a", &["x"], ident()),
                Activity::map("src_b", &["x"], ident()),
                Activity::map("join", &["x"], ident()).with_route("x", Value::Int(1)),
            ],
            deps: vec![vec![], vec![], vec![0, 1]],
        };
        let outs = drive(&def, &input(3));
        assert_eq!(outs[0].len(), 3);
        assert_eq!(outs[1].len(), 3);
        // both sources emit 0..3; the route keeps only x == 1, twice
        assert_eq!(outs[2].len(), 2);
    }

    #[test]
    fn empty_input_closes_everything_without_submissions() {
        let def = WorkflowDef {
            tag: "t".into(),
            description: String::new(),
            expdir: "/e".into(),
            activities: vec![
                Activity::map("a", &["x"], ident()),
                Activity::map("b", &["x"], ident()),
            ],
            deps: vec![vec![], vec![0]],
        };
        let (pipe, reqs) = PipelineState::new(Arc::new(def), &input(0), Telemetry::disabled());
        assert!(reqs.is_empty());
        assert!(pipe.done(), "empty workflow closes at seed time");
        assert_eq!(pipe.submitted(), 0);
    }

    #[test]
    fn pair_key_is_order_insensitive_for_groups() {
        let a = vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(pair_key(&a), pair_key(&b));
        assert_ne!(pair_key(&a), pair_key(&a[..2]));
        assert_eq!(pair_key(&[]), "<empty>");
        // integral floats key like their integer originals
        assert_eq!(pair_key(&[vec![Value::Int(7)]]), pair_key(&[vec![Value::Float(7.0)]]),);
    }

    #[test]
    fn split_path_splits() {
        assert_eq!(split_path("/a/b/c.dlg"), ("/a/b/", "c.dlg"));
        assert_eq!(split_path("file.txt"), ("", "file.txt"));
    }
}
