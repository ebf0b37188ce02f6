//! Virtual machines and the elastic virtual cluster.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use telemetry::Telemetry;

use crate::des::SimTime;
use crate::instance::InstanceType;

/// Simulated seconds → the nanosecond timeline telemetry records on.
pub fn sim_ns(t: SimTime) -> u64 {
    (t.max(0.0) * 1e9) as u64
}

/// Identifier of a VM within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub usize);

/// One virtual machine.
#[derive(Debug, Clone)]
pub struct Vm {
    /// Identifier within the cluster.
    pub id: VmId,
    /// Instance type.
    pub itype: &'static InstanceType,
    /// Multiplicative performance factor from virtualization noise
    /// (paper §V.C: "performance fluctuations due to the virtualization").
    /// 1.0 = nominal; values < 1.0 are slower.
    pub perf_factor: f64,
    /// When the VM finished booting and can accept work.
    pub ready_at: SimTime,
    /// When the VM was released (`None` while alive).
    pub released_at: Option<SimTime>,
}

impl Vm {
    /// Effective compute speed of one core (nominal × noise).
    pub fn core_speed(&self) -> f64 {
        self.itype.ecu_per_core * self.perf_factor
    }

    /// Wall-clock duration on this VM for work with nominal cost
    /// `nominal_seconds` (measured on a 1.0-speed core).
    pub fn runtime_for(&self, nominal_seconds: f64) -> f64 {
        nominal_seconds / self.core_speed()
    }

    /// Is the VM alive (booted and not released) at `t`?
    fn alive_at(&self, t: SimTime) -> bool {
        t >= self.ready_at && self.released_at.is_none_or(|r| t < r)
    }
}

/// Configuration of VM performance noise.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Half-width of the uniform noise band (0.1 → factors in [0.9, 1.1]).
    pub amplitude: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel { amplitude: 0.12 }
    }
}

/// An elastic virtual cluster: acquire and release VMs over simulated time.
#[derive(Debug)]
pub struct Cluster {
    vms: Vec<Vm>,
    noise: NoiseModel,
    rng: ChaCha8Rng,
    tel: Telemetry,
    /// Telemetry track (trace-viewer lane) per VM, indexed by `VmId`.
    tracks: Vec<u64>,
}

impl Cluster {
    /// Empty cluster with deterministic noise from `seed`.
    pub fn new(seed: u64, noise: NoiseModel) -> Cluster {
        Cluster::with_telemetry(seed, noise, Telemetry::disabled())
    }

    /// Like [`Cluster::new`], with a telemetry sink: every VM gets its own
    /// trace lane carrying boot/alive spans at simulated timestamps.
    pub fn with_telemetry(seed: u64, noise: NoiseModel, tel: Telemetry) -> Cluster {
        Cluster {
            vms: Vec::new(),
            noise,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xC10D_51A1),
            tel,
            tracks: Vec::new(),
        }
    }

    /// Acquire a VM of `itype` at time `t`; it becomes ready after boot.
    pub fn acquire(&mut self, itype: &'static InstanceType, t: SimTime) -> VmId {
        let id = VmId(self.vms.len());
        let a = self.noise.amplitude;
        let perf_factor = if a > 0.0 { 1.0 + self.rng.gen_range(-a..a) } else { 1.0 };
        let ready_at = t + itype.boot_seconds;
        self.vms.push(Vm { id, itype, perf_factor, ready_at, released_at: None });
        let track = self.tel.alloc_track(&format!("vm-{} ({})", id.0, itype.name));
        self.tracks.push(track);
        if self.tel.is_enabled() {
            self.tel.record_span_at(
                "vm",
                "boot",
                Some(track),
                sim_ns(t),
                sim_ns(ready_at),
                Some(&format!("perf_factor={perf_factor:.3}")),
            );
            self.tel.count("sim.vm_acquired", 1);
        }
        id
    }

    /// Release a VM at time `t`.
    ///
    /// # Panics
    /// Panics if the VM was already released (double-release is a scheduler
    /// bug).
    pub fn release(&mut self, id: VmId, t: SimTime) {
        let vm = &mut self.vms[id.0];
        assert!(vm.released_at.is_none(), "VM {id:?} released twice");
        vm.released_at = Some(t);
        if self.tel.is_enabled() {
            self.tel.instant_at("vm", "release", Some(self.tracks[id.0]), sim_ns(t), None);
            self.tel.count("sim.vm_released", 1);
        }
    }

    /// Telemetry track (trace lane) of a VM — 0 when telemetry is disabled.
    pub fn track(&self, id: VmId) -> u64 {
        self.tracks[id.0]
    }

    /// Borrow a VM.
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.0]
    }

    /// All VMs ever acquired (including released ones).
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// Total virtual cores alive at `t`.
    pub fn cores_at(&self, t: SimTime) -> u32 {
        self.vms.iter().filter(|v| v.alive_at(t)).map(|v| v.itype.cores).sum()
    }

    /// Total cost in USD assuming each VM is billed per started hour from
    /// acquisition (boot included) to release (or `now` if still alive).
    pub fn total_cost(&self, now: SimTime) -> f64 {
        self.vms
            .iter()
            .map(|v| {
                let start = v.ready_at - v.itype.boot_seconds;
                let end = v.released_at.unwrap_or(now).max(start);
                crate::billing::BillingModel::of(v.itype).charge(end - start)
            })
            .sum()
    }
}

#[cfg(test)]
impl Cluster {
    /// VMs alive at time `t`.
    fn alive_at(&self, t: SimTime) -> Vec<VmId> {
        self.vms.iter().filter(|v| v.alive_at(t)).map(|v| v.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{M3_2XLARGE, M3_XLARGE};

    fn cluster() -> Cluster {
        Cluster::new(7, NoiseModel::default())
    }

    #[test]
    fn acquire_boot_release_lifecycle() {
        let mut c = cluster();
        let id = c.acquire(&M3_XLARGE, 0.0);
        let vm = c.vm(id);
        assert!(!vm.alive_at(0.0), "still booting");
        assert!(vm.alive_at(M3_XLARGE.boot_seconds + 1.0));
        c.release(id, 500.0);
        assert!(!c.vm(id).alive_at(500.0));
        assert!(c.vm(id).alive_at(499.0));
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_panics() {
        let mut c = cluster();
        let id = c.acquire(&M3_XLARGE, 0.0);
        c.release(id, 10.0);
        c.release(id, 20.0);
    }

    #[test]
    fn perf_noise_within_band() {
        let mut c = Cluster::new(3, NoiseModel { amplitude: 0.1 });
        for _ in 0..50 {
            let id = c.acquire(&M3_XLARGE, 0.0);
            let f = c.vm(id).perf_factor;
            assert!((0.9..1.1).contains(&f), "{f}");
        }
        // at least some spread
        let factors: Vec<f64> = c.vms().iter().map(|v| v.perf_factor).collect();
        let min = factors.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = factors.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.01, "noise should vary between VMs");
    }

    #[test]
    fn zero_noise_is_nominal() {
        let mut c = Cluster::new(3, NoiseModel { amplitude: 0.0 });
        let id = c.acquire(&M3_2XLARGE, 0.0);
        assert_eq!(c.vm(id).perf_factor, 1.0);
        assert_eq!(c.vm(id).core_speed(), 1.0);
        assert_eq!(c.vm(id).runtime_for(30.0), 30.0);
    }

    #[test]
    fn runtime_scales_inversely_with_speed() {
        let mut c = Cluster::new(9, NoiseModel { amplitude: 0.0 });
        let id = c.acquire(&M3_XLARGE, 0.0);
        let vm = c.vm(id);
        assert!((vm.runtime_for(10.0) - 10.0 / vm.core_speed()).abs() < 1e-12);
    }

    #[test]
    fn cores_and_alive_tracking() {
        let mut c = Cluster::new(1, NoiseModel { amplitude: 0.0 });
        let a = c.acquire(&M3_XLARGE, 0.0); // ready at 95
        let b = c.acquire(&M3_2XLARGE, 0.0); // ready at 110
        assert_eq!(c.cores_at(0.0), 0);
        assert_eq!(c.cores_at(100.0), 4);
        assert_eq!(c.cores_at(120.0), 12);
        c.release(a, 200.0);
        assert_eq!(c.cores_at(250.0), 8);
        assert_eq!(c.alive_at(250.0), vec![b]);
    }

    #[test]
    fn billing_rounds_up_to_hours() {
        let mut c = Cluster::new(1, NoiseModel { amplitude: 0.0 });
        let a = c.acquire(&M3_XLARGE, 0.0);
        c.release(a, 10.0); // ten simulated seconds still bill one hour
        assert!((c.total_cost(10.0) - M3_XLARGE.hourly_usd).abs() < 1e-12);
        let b = c.acquire(&M3_2XLARGE, 0.0);
        c.release(b, 2.5 * 3600.0); // 2.5h -> 3 billed hours
        let want = M3_XLARGE.hourly_usd + 3.0 * M3_2XLARGE.hourly_usd;
        assert!((c.total_cost(2.5 * 3600.0) - want).abs() < 1e-12);
    }

    #[test]
    fn telemetry_lanes_carry_boot_spans_and_lifecycle_counters() {
        let tel = Telemetry::attached();
        let mut c = Cluster::with_telemetry(1, NoiseModel { amplitude: 0.0 }, tel.clone());
        let a = c.acquire(&M3_XLARGE, 0.0);
        let b = c.acquire(&M3_2XLARGE, 5.0);
        assert_ne!(c.track(a), 0);
        assert_ne!(c.track(a), c.track(b));
        c.release(a, 300.0);

        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.counter("sim.vm_acquired"), Some(2));
        assert_eq!(snap.counter("sim.vm_released"), Some(1));
        let lane = snap.tracks.iter().find(|t| t.track == c.track(a)).expect("vm lane named");
        assert!(lane.name.starts_with("vm-0"));
        // the boot span covers exactly the boot window in simulated seconds
        assert!((lane.busy_s - M3_XLARGE.boot_seconds).abs() < 1e-6, "busy {}", lane.busy_s);

        // disabled telemetry: tracks are 0 and nothing records
        let mut quiet = Cluster::new(1, NoiseModel { amplitude: 0.0 });
        let q = quiet.acquire(&M3_XLARGE, 0.0);
        assert_eq!(quiet.track(q), 0);
    }

    #[test]
    fn alive_vm_billed_to_now() {
        let mut c = Cluster::new(1, NoiseModel { amplitude: 0.0 });
        c.acquire(&M3_XLARGE, 0.0);
        let cost_now = c.total_cost(30.0 * 60.0);
        assert!((cost_now - M3_XLARGE.hourly_usd).abs() < 1e-12);
        let later = c.total_cost(90.0 * 60.0); // 1.5h -> 2 hours
        assert!((later - 2.0 * M3_XLARGE.hourly_usd).abs() < 1e-12);
    }
}
