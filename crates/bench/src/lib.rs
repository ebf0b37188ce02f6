//! # scidock-bench — the shipped binaries
//!
//! Hosts `scidockd`, `scidock-worker` and `scidock-top`, the `figures`
//! binary that regenerates every table and figure of the paper's evaluation
//! section (see EXPERIMENTS.md at the workspace root), and the integration
//! tests that need more than one product crate. Timing lives in
//! `benchmark/` at the workspace root, not here.

#![warn(missing_docs)]

pub mod distspec;

/// Machine-readable JSON sidecar for the `figures` binary: each figure or
/// table pushes its series as a pre-rendered JSON value under a key, and the
/// whole collection is written as one object so the series can be diffed
/// across PRs without scraping the text output.
pub mod sidecar {
    use telemetry::json;

    /// Version of the `figures.json` envelope. Emitted as the first key of
    /// [`Sidecar::to_json`]; bump it whenever a key is renamed or its value
    /// shape changes.
    pub const SCHEMA_VERSION: u64 = 1;

    /// Accumulates `(key, json_value)` entries in insertion order.
    #[derive(Debug, Default)]
    pub struct Sidecar {
        entries: Vec<(String, String)>,
    }

    impl Sidecar {
        /// Empty sidecar.
        pub fn new() -> Sidecar {
            Sidecar::default()
        }

        /// Add a figure under `key`; `value` must already be valid JSON.
        pub fn push(&mut self, key: &str, value: String) {
            debug_assert!(json::validate(&value).is_ok(), "invalid JSON for {key}: {value}");
            self.entries.push((key.to_string(), value));
        }

        /// Embed the final [`telemetry::MetricsSnapshot`] of the run that
        /// produced this sidecar under the `"metrics"` key.
        pub fn push_metrics(&mut self, snap: &telemetry::MetricsSnapshot) {
            self.push("metrics", snap.to_json());
        }

        /// Any figures recorded?
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Render the whole collection as one JSON object, led by the
        /// `"schema"` envelope version.
        pub fn to_json(&self) -> String {
            let mut out = format!("{{\"schema\":{SCHEMA_VERSION}");
            for (k, v) in self.entries.iter() {
                out.push(',');
                out.push('"');
                out.push_str(&json::escape(k));
                out.push_str("\":");
                out.push_str(v);
            }
            out.push('}');
            out
        }

        /// Write the collection to `path`, creating parent directories.
        pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            std::fs::write(path, self.to_json())
        }
    }

    /// Render a slice of `f64` as a JSON array.
    pub fn num_array(vals: &[f64]) -> String {
        let body: Vec<String> = vals.iter().map(|v| json::num(*v)).collect();
        format!("[{}]", body.join(","))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn sidecar_renders_valid_json() {
            let mut sc = Sidecar::new();
            assert!(sc.is_empty());
            sc.push("fig7", format!("{{\"cores\":[2,4],\"tet_s\":{}}}", num_array(&[9.5, 4.75])));
            sc.push("headline", "{\"speedup_at_16\":13.1}".to_string());
            let out = sc.to_json();
            telemetry::json::validate(&out).expect("sidecar output is well-formed JSON");
            assert!(out.starts_with(&format!("{{\"schema\":{SCHEMA_VERSION},\"fig7\":")));
            assert!(out.contains("\"headline\":{"));
        }

        #[test]
        fn empty_sidecar_still_carries_the_schema_version() {
            let sc = Sidecar::new();
            assert_eq!(sc.to_json(), format!("{{\"schema\":{SCHEMA_VERSION}}}"));
        }

        #[test]
        fn push_metrics_embeds_a_snapshot_object() {
            let tel = telemetry::Telemetry::attached();
            tel.count("worker.finished", 3);
            let mut sc = Sidecar::new();
            sc.push_metrics(&tel.snapshot().expect("attached"));
            let out = sc.to_json();
            telemetry::json::validate(&out).expect("valid JSON");
            assert!(out.contains("\"metrics\":{"));
            assert!(out.contains("\"worker.finished\":3"));
        }

        #[test]
        fn num_array_handles_empty_and_non_finite() {
            assert_eq!(num_array(&[]), "[]");
            assert_eq!(num_array(&[1.0, f64::NAN, 2.5]), "[1,null,2.5]");
        }
    }
}

/// Text rendering shared by `figures` and `scidock-top`.
pub mod util {
    /// Render seconds as a short human-friendly duration.
    pub fn human_time(s: f64) -> String {
        if s >= 86_400.0 {
            format!("{:.1} d", s / 86_400.0)
        } else if s >= 3_600.0 {
            format!("{:.1} h", s / 3_600.0)
        } else if s >= 60.0 {
            format!("{:.1} m", s / 60.0)
        } else {
            format!("{s:.1} s")
        }
    }

    /// A fixed-width ASCII bar for histogram rendering.
    pub fn bar(count: usize, max: usize, width: usize) -> String {
        if max == 0 {
            return String::new();
        }
        let n = (count * width).div_ceil(max);
        "#".repeat(n)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn human_time_units() {
            assert_eq!(human_time(30.0), "30.0 s");
            assert_eq!(human_time(120.0), "2.0 m");
            assert_eq!(human_time(7200.0), "2.0 h");
            assert_eq!(human_time(2.0 * 86_400.0), "2.0 d");
        }

        #[test]
        fn bar_scaling() {
            assert_eq!(bar(10, 10, 20), "#".repeat(20));
            assert_eq!(bar(5, 10, 20), "#".repeat(10));
            assert_eq!(bar(0, 10, 20), "");
            assert_eq!(bar(1, 0, 20), "");
        }
    }
}
