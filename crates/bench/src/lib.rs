//! # scidock-bench — the shipped binaries
//!
//! Hosts `scidockd`, `scidock-worker` and `scidock-top`, the `figures`
//! binary that regenerates every table and figure of the paper's evaluation
//! section (see EXPERIMENTS.md at the workspace root), and the integration
//! tests that need more than one product crate. Timing lives in
//! `benchmark/` at the workspace root, not here.

#![warn(missing_docs)]

pub mod distspec;

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
