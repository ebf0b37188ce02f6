//! Shared filesystem model — the s3fs-backed staging layer of the paper's
//! deployment ("SciCumulus uses a shared file system, FUSE-based … backed by
//! Amazon S3").
//!
//! Every activation stages its input files in and its output files out
//! through this layer; the model charges per-request latency plus
//! bandwidth-limited transfer time, with a mild contention penalty as more
//! VMs share the link.

use serde::{Deserialize, Serialize};

/// Transfer-cost model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedFsModel {
    /// Per-file request latency in seconds (S3 GET/PUT round trip via FUSE).
    pub latency_s: f64,
    /// Aggregate link bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Contention exponent: effective per-VM bandwidth is
    /// `bandwidth / concurrency^contention` (0 = no contention, 1 = fair
    /// share).
    pub contention: f64,
}

impl Default for SharedFsModel {
    fn default() -> Self {
        SharedFsModel { latency_s: 0.06, bandwidth_bps: 60.0e6, contention: 0.5 }
    }
}

impl SharedFsModel {
    /// Time to move one file of `bytes` with `concurrency` VMs sharing the
    /// link.
    pub fn transfer_time(&self, bytes: u64, concurrency: u32) -> f64 {
        let conc = concurrency.max(1) as f64;
        let eff_bw = self.bandwidth_bps / conc.powf(self.contention);
        self.latency_s + bytes as f64 / eff_bw
    }
}

#[cfg(test)]
impl SharedFsModel {
    /// Time to stage a set of files sequentially (FUSE mounts serialize
    /// per-process I/O).
    fn stage_time(&self, file_sizes: &[u64], concurrency: u32) -> f64 {
        file_sizes.iter().map(|&b| self.transfer_time(b, concurrency)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_floor() {
        let m = SharedFsModel::default();
        let t = m.transfer_time(0, 1);
        assert!((t - m.latency_s).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_term_scales_with_size() {
        let m = SharedFsModel { latency_s: 0.0, bandwidth_bps: 1e6, contention: 0.0 };
        assert!((m.transfer_time(1_000_000, 1) - 1.0).abs() < 1e-9);
        assert!((m.transfer_time(2_000_000, 1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn contention_slows_transfers() {
        let m = SharedFsModel::default();
        let alone = m.transfer_time(10_000_000, 1);
        let crowded = m.transfer_time(10_000_000, 32);
        assert!(crowded > alone, "32-way contention must be slower: {crowded} vs {alone}");
    }

    #[test]
    fn no_contention_mode() {
        let m = SharedFsModel { contention: 0.0, ..Default::default() };
        assert_eq!(m.transfer_time(1000, 1), m.transfer_time(1000, 64));
    }

    #[test]
    fn stage_time_sums_files() {
        let m = SharedFsModel { latency_s: 0.1, bandwidth_bps: 1e6, contention: 0.0 };
        let t = m.stage_time(&[1_000_000, 1_000_000], 1);
        assert!((t - 2.2).abs() < 1e-9);
        assert_eq!(m.stage_time(&[], 1), 0.0);
    }

    #[test]
    fn zero_concurrency_treated_as_one() {
        let m = SharedFsModel::default();
        assert_eq!(m.transfer_time(1000, 0), m.transfer_time(1000, 1));
    }
}
