//! EC2-style instance types — the catalog behind the paper's Table 1.

use serde::{Deserialize, Serialize};

/// A virtual machine instance type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceType {
    /// API name, e.g. `m3.xlarge`.
    pub name: &'static str,
    /// Virtual cores.
    pub cores: u32,
    /// Physical processor marketing name.
    pub processor: &'static str,
    /// Relative per-core compute power (EC2 Compute Unit style factor;
    /// 1.0 = baseline core).
    pub ecu_per_core: f64,
    /// On-demand hourly price in USD (2014 us-east-1 list price).
    pub hourly_usd: f64,
    /// Boot latency in seconds until the VM accepts work.
    pub boot_seconds: f64,
}

/// `m3.xlarge`: 4 vCPU on Intel Xeon E5-2670 (Table 1, row 1).
pub const M3_XLARGE: InstanceType = InstanceType {
    name: "m3.xlarge",
    cores: 4,
    processor: "Intel Xeon E5-2670",
    ecu_per_core: 1.0,
    hourly_usd: 0.450,
    boot_seconds: 95.0,
};

/// `m3.2xlarge`: 8 vCPU on Intel Xeon E5-2670 (Table 1, row 2).
pub const M3_2XLARGE: InstanceType = InstanceType {
    name: "m3.2xlarge",
    cores: 8,
    processor: "Intel Xeon E5-2670",
    ecu_per_core: 1.0,
    hourly_usd: 0.900,
    boot_seconds: 110.0,
};

/// `m3.large`: 2 vCPU — used only for the paper's 2-core baseline points.
pub const M3_LARGE: InstanceType = InstanceType {
    name: "m3.large",
    cores: 2,
    processor: "Intel Xeon E5-2670",
    ecu_per_core: 1.0,
    hourly_usd: 0.225,
    boot_seconds: 90.0,
};

/// `m1.small`: 1 vCPU — used only for the single-core speedup baseline.
pub const M1_SMALL: InstanceType = InstanceType {
    name: "m1.small",
    cores: 1,
    processor: "Intel Xeon E5-2670",
    ecu_per_core: 1.0,
    hourly_usd: 0.060,
    boot_seconds: 80.0,
};

/// The instance catalog used by the experiments: the paper's two fleet
/// types plus the two baseline-only types.
pub const CATALOG: [&InstanceType; 4] = [&M1_SMALL, &M3_LARGE, &M3_XLARGE, &M3_2XLARGE];

/// Compose a mixed fleet totalling `target_cores` virtual cores, mirroring
/// the paper's "combination of m3.xlarge and m3.2xlarge VMs up to 32 VMs,
/// totalizing 128 virtual cores".
///
/// Strategy: alternate m3.2xlarge / m3.xlarge for the heterogeneous mix the
/// paper describes; remainders below 4 cores use the baseline types
/// (m3.large, m1.small), which exist for the paper's 1- and 2-core points.
pub fn fleet_for_cores(target_cores: u32) -> Vec<&'static InstanceType> {
    assert!(target_cores >= 1, "core count must be positive");
    let mut fleet = Vec::new();
    let mut remaining = target_cores;
    let mut pick_large = true;
    while remaining > 0 {
        if pick_large && remaining >= 8 {
            fleet.push(&M3_2XLARGE);
            remaining -= 8;
        } else if remaining >= 4 {
            fleet.push(&M3_XLARGE);
            remaining -= 4;
        } else if remaining >= 2 {
            fleet.push(&M3_LARGE);
            remaining -= 2;
        } else {
            fleet.push(&M1_SMALL);
            remaining -= 1;
        }
        pick_large = !pick_large;
    }
    fleet
}

/// Look up an instance type by name.
#[cfg(test)]
fn by_name(name: &str) -> Option<&'static InstanceType> {
    CATALOG.iter().copied().find(|t| t.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        // Table 1 of the paper
        assert_eq!(M3_XLARGE.cores, 4);
        assert_eq!(M3_2XLARGE.cores, 8);
        assert_eq!(M3_XLARGE.processor, "Intel Xeon E5-2670");
        assert_eq!(M3_2XLARGE.processor, "Intel Xeon E5-2670");
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("m3.xlarge").unwrap().cores, 4);
        assert_eq!(by_name("m3.2xlarge").unwrap().cores, 8);
        assert!(by_name("t2.nano").is_none());
    }

    #[test]
    fn fleet_reaches_exact_core_counts() {
        for cores in [1u32, 2, 3, 4, 8, 16, 32, 64, 128] {
            let fleet = fleet_for_cores(cores);
            let total: u32 = fleet.iter().map(|t| t.cores).sum();
            assert_eq!(total, cores, "fleet for {cores}");
        }
    }

    #[test]
    fn fleet_is_heterogeneous_at_scale() {
        let fleet = fleet_for_cores(128);
        let large = fleet.iter().filter(|t| t.cores == 8).count();
        let small = fleet.iter().filter(|t| t.cores == 4).count();
        assert!(large > 0 && small > 0, "mix of both types: {large} large, {small} small");
        // paper: up to 32 VMs for 128 cores
        assert!(fleet.len() <= 32);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn fleet_rejects_zero_cores() {
        fleet_for_cores(0);
    }

    #[test]
    fn baseline_fleets_use_small_types() {
        assert_eq!(fleet_for_cores(1), vec![&M1_SMALL]);
        assert_eq!(fleet_for_cores(2), vec![&M3_LARGE]);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // sanity-checks the static catalog
    fn bigger_instance_costs_more() {
        assert!(M3_2XLARGE.hourly_usd > M3_XLARGE.hourly_usd);
        for t in CATALOG {
            assert!(t.hourly_usd > 0.0);
            assert!(t.boot_seconds > 0.0);
            assert!(t.ecu_per_core > 0.0);
        }
    }
}
