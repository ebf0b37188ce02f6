//! Property-based tests for the workflow engine substrate.

use proptest::prelude::*;

use cloudsim::EventQueue;
use cumulus::sched::{ReadyQueue, ReadyTask};
use cumulus::xmlspec::SciCumulusSpec;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0.0..1e6f64, 0..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(*t, i);
        }
        let mut popped: Vec<f64> = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t);
        }
        prop_assert_eq!(popped.len(), times.len());
        prop_assert!(popped.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ready_queue_conserves_tasks(weights in prop::collection::vec(0.1..1e4f64, 0..100)) {
        let mut q = ReadyQueue::new();
        for (i, w) in weights.iter().enumerate() {
            q.push(ReadyTask { task: i, weight: *w });
        }
        prop_assert_eq!(q.len(), weights.len());
        let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|t| t.task).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..weights.len()).collect::<Vec<_>>());
    }

    /// Heaviest first, and equal weights in push order: the simulator's
    /// determinism rests on that tie rule. Level 0 draws a weight from the
    /// whole range, levels 1 to 3 from a set of three, so ties are common.
    #[test]
    fn greedy_queue_pops_in_weight_order(
        draws in prop::collection::vec((0u8..4, 0.1..1e4f64), 1..100)
    ) {
        let mut q = ReadyQueue::new();
        for (i, (level, w)) in draws.iter().enumerate() {
            let weight = if *level == 0 { *w } else { f64::from(*level) };
            q.push(ReadyTask { task: i, weight });
        }
        let order: Vec<ReadyTask> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert!(order.windows(2).all(|w| w[0].weight >= w[1].weight), "{order:?}");
        let mut ties = order.windows(2).filter(|w| w[0].weight == w[1].weight);
        prop_assert!(ties.all(|w| w[0].task < w[1].task), "{order:?}");
    }

    #[test]
    fn xml_attribute_values_are_escaped(desc in "[a-zA-Z0-9<>&\"' ]{0,40}", tag in "[A-Za-z][A-Za-z0-9]{0,10}") {
        let spec = SciCumulusSpec {
            database: cumulus::xmlspec::DatabaseSpec {
                name: "db".into(),
                server: "localhost".into(),
                port: 5432,
            },
            tag: tag.clone(),
            description: desc.clone(),
            exectag: "x".into(),
            expdir: "/e/".into(),
            activities: vec![],
        };
        let text = spec.to_xml();
        // the value's markup characters never reach the document raw
        let escaped = desc
            .replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
            .replace('"', "&quot;");
        let attr = format!("description=\"{escaped}\"");
        prop_assert!(text.contains(&attr), "{}", text);
        let wf_tag = format!("<SciCumulusWorkflow tag=\"{tag}\"");
        prop_assert!(text.contains(&wf_tag), "{}", text);
    }
}

// ---- telemetry histogram: the mergeable/streamable metrics substrate ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Quantiles are monotone in `q`: a higher quantile can never report a
    /// smaller value, whatever the sample distribution.
    #[test]
    fn histogram_quantiles_are_monotone(samples in prop::collection::vec(0u64..=u64::MAX, 1..300),
                                        qs in prop::collection::vec(0.0..1.0f64, 2..8)) {
        let mut h = telemetry::HistogramSnapshot::new();
        for s in &samples {
            h.record(*s);
        }
        let mut qs = qs;
        qs.sort_by(|a, b| a.total_cmp(b));
        let vals: Vec<f64> = qs.iter().map(|q| h.quantile(*q)).collect();
        prop_assert!(
            vals.windows(2).all(|w| w[0] <= w[1]),
            "quantiles not monotone: {qs:?} -> {vals:?}"
        );
        // the top quantile reports the exact maximum
        prop_assert_eq!(h.quantile(1.0), h.max as f64);
    }

    /// Merging two snapshots is bitwise identical to having recorded the
    /// union of their sample streams — the property the master's mid-run
    /// cluster-wide merge of worker `Stats` frames depends on.
    #[test]
    fn histogram_merge_equals_union_stream(a in prop::collection::vec(0u64..=u64::MAX, 0..200),
                                           b in prop::collection::vec(0u64..=u64::MAX, 0..200)) {
        let mut ha = telemetry::HistogramSnapshot::new();
        for s in &a {
            ha.record(*s);
        }
        let mut hb = telemetry::HistogramSnapshot::new();
        for s in &b {
            hb.record(*s);
        }
        ha.merge(&hb);

        let mut hu = telemetry::HistogramSnapshot::new();
        for s in a.iter().chain(b.iter()) {
            hu.record(*s);
        }
        prop_assert_eq!(&ha.buckets[..], &hu.buckets[..]);
        prop_assert_eq!(ha.count, hu.count);
        prop_assert_eq!(ha.sum, hu.sum); // wrapping adds commute
        prop_assert_eq!(ha.max, hu.max);
    }

    /// The wire form (`[count, sum, max, bucket 0..63]`) round-trips
    /// losslessly, so a worker's streamed histogram reconstructs exactly.
    #[test]
    fn histogram_words_roundtrip(samples in prop::collection::vec(0u64..=u64::MAX, 0..300)) {
        let mut h = telemetry::HistogramSnapshot::new();
        for s in &samples {
            h.record(*s);
        }
        let words = h.to_words();
        prop_assert_eq!(words.len(), 3 + telemetry::HIST_BUCKETS);
        let back = telemetry::HistogramSnapshot::from_words(&words)
            .expect("well-formed word vector");
        prop_assert_eq!(back, h);
        // wrong lengths are rejected, never misparsed
        prop_assert_eq!(telemetry::HistogramSnapshot::from_words(&words[..words.len() - 1]), None);
    }
}
