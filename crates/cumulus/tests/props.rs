//! Property-based tests for the workflow engine substrate.

use proptest::prelude::*;

use cloudsim::EventQueue;
use cumulus::sched::ReadyQueue;
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

    /// Each task pops once; every dependent task pops before every source
    /// task queued with it, and each group keeps push order — the
    /// simulator's determinism rests on that rule.
    #[test]
    fn ready_queue_pops_dependents_first_in_push_order(
        kinds in prop::collection::vec(0u8..2, 0..100)
    ) {
        let dependent: Vec<bool> = kinds.iter().map(|k| *k == 1).collect();
        let mut q = ReadyQueue::new();
        for (i, d) in dependent.iter().enumerate() {
            q.push(i, *d);
        }
        prop_assert_eq!(q.len(), dependent.len());
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        let (deps, sources): (Vec<usize>, Vec<usize>) =
            (0..dependent.len()).partition(|&i| dependent[i]);
        prop_assert_eq!(order, [deps, sources].concat());
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
