//! Per-started-hour billing, as Amazon EC2 charged at the time of the
//! paper's experiments.
//!
//! [`crate::vm::Cluster::total_cost`] prices every simulated VM lease with
//! it.

use crate::instance::InstanceType;

/// Prices a single machine lease: a fixed rate per *started* hour.
///
/// EC2's classic model rounds every lease up to whole hours and bills at
/// least one hour even for a lease of a few seconds — which is exactly why
/// the paper's elasticity policies drain-then-retire instead of churning
/// workers: a worker retired after five minutes costs the same as one kept
/// for fifty-five.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BillingModel {
    /// On-demand price in USD per started hour.
    pub hourly_usd: f64,
}

impl BillingModel {
    /// A model charging `hourly_usd` per started hour.
    pub fn per_hour(hourly_usd: f64) -> BillingModel {
        BillingModel { hourly_usd }
    }

    /// The billing model of a catalog instance type.
    pub fn of(itype: &InstanceType) -> BillingModel {
        BillingModel::per_hour(itype.hourly_usd)
    }

    /// Cost in USD of a lease lasting `seconds`, rounded up to whole hours
    /// with a one-hour minimum. Negative durations bill the minimum hour.
    pub fn charge(&self, seconds: f64) -> f64 {
        let hours = (seconds / 3600.0).ceil().max(1.0);
        hours * self.hourly_usd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{M1_SMALL, M3_XLARGE};

    #[test]
    fn leases_round_up_to_started_hours() {
        let b = BillingModel::per_hour(0.450);
        assert!((b.charge(1.0) - 0.450).abs() < 1e-12, "a few seconds bills one hour");
        assert!((b.charge(3600.0) - 0.450).abs() < 1e-12, "exactly one hour");
        assert!((b.charge(3601.0) - 0.900).abs() < 1e-12, "a second over starts hour two");
        assert!((b.charge(2.5 * 3600.0) - 3.0 * 0.450).abs() < 1e-12);
    }

    #[test]
    fn zero_and_negative_durations_bill_the_minimum_hour() {
        let b = BillingModel::per_hour(0.060);
        assert!((b.charge(0.0) - 0.060).abs() < 1e-12);
        assert!((b.charge(-5.0) - 0.060).abs() < 1e-12);
    }

    #[test]
    fn of_matches_the_catalog_rate() {
        assert_eq!(BillingModel::of(&M3_XLARGE).hourly_usd, M3_XLARGE.hourly_usd);
        assert_eq!(BillingModel::of(&M1_SMALL).hourly_usd, M1_SMALL.hourly_usd);
    }
}
