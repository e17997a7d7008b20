//! VM arrival process: Poisson group arrivals, exponential lifetimes.
//!
//! The paper generates "arrival and life-time of each VM, given in time
//! slots, by poisson and exponential distributions". We arrive VMs in
//! *application groups* (1–6 VMs sharing one application) because the data
//! correlation the paper exploits exists between VMs of the same
//! application; singleton groups are common, so per-VM Poisson arrivals are
//! a special case.

use crate::distributions::{Exponential, Poisson, WeightedChoice};
use crate::mix::FleetMix;
use crate::trace::{TraceKind, TraceParams, VmTrace};
use crate::vm::{GroupId, VmSpec};
use geoplace_types::time::TimeSlot;
use geoplace_types::units::Gigabytes;
use geoplace_types::{Error, Result, VmId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A flash-crowd arrival burst: extra short-lived web-serving groups
/// pour in over a slot window, hard-capped at a peak concurrency.
///
/// The cap is the generator's contract: no matter how hot the Poisson
/// stream runs, the number of *concurrently active* VMs spawned by one
/// burst never exceeds [`BurstConfig::peak_vms`] — groups arriving with
/// no remaining headroom are clamped (and dropped once headroom is
/// exhausted), which is exactly how an admission-controlled front door
/// behaves during a flash crowd.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstConfig {
    /// First slot of the burst window.
    pub start_slot: u32,
    /// Number of slots the burst lasts.
    pub duration_slots: u32,
    /// Mean extra groups per slot *on top of* the base arrival rate.
    pub groups_per_slot: f64,
    /// Mean lifetime of burst VMs in slots (typically short).
    pub mean_lifetime_slots: f64,
    /// Hard cap on concurrently active VMs spawned by this burst.
    pub peak_vms: u32,
}

impl BurstConfig {
    /// Whether `slot` lies inside the burst window.
    pub fn covers(&self, slot: TimeSlot) -> bool {
        slot.0 >= self.start_slot && slot.0 - self.start_slot < self.duration_slots
    }

    /// Validates rates and the window.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on degenerate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.duration_slots == 0 {
            return Err(Error::invalid_config("burst duration must be >= 1 slot"));
        }
        if !self.groups_per_slot.is_finite() || self.groups_per_slot < 0.0 {
            return Err(Error::invalid_config("burst groups_per_slot must be >= 0"));
        }
        if !self.mean_lifetime_slots.is_finite() || self.mean_lifetime_slots <= 0.0 {
            return Err(Error::invalid_config(
                "burst mean_lifetime_slots must be finite and > 0",
            ));
        }
        if self.peak_vms == 0 {
            return Err(Error::invalid_config("burst peak_vms must be >= 1"));
        }
        Ok(())
    }
}

/// A correlated-batch cohort: one application group of exactly `vms`
/// batch VMs arriving together at a fixed slot with a fixed lifetime.
///
/// Cohorts are wired as a single group, so the data-correlation
/// generator meshes them fully — a MapReduce-style job whose members
/// exchange data heavily and must be placed *together* to keep the
/// response time down.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CohortConfig {
    /// Arrival slot (must be >= 1; slot 0 belongs to the initial
    /// population).
    pub slot: u32,
    /// Number of VMs in the cohort (one application group).
    pub vms: u32,
    /// Fixed lifetime of every cohort member, in slots.
    pub lifetime_slots: u32,
}

impl CohortConfig {
    /// Validates the cohort shape.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on degenerate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.slot == 0 {
            return Err(Error::invalid_config(
                "cohorts arrive at slot >= 1 (slot 0 is the initial population)",
            ));
        }
        if self.vms == 0 {
            return Err(Error::invalid_config("cohort must contain >= 1 VM"));
        }
        if self.lifetime_slots == 0 {
            return Err(Error::invalid_config("cohort lifetime must be >= 1 slot"));
        }
        Ok(())
    }
}

/// One trace-scripted arrival: a fully specified VM injected at a fixed
/// slot, typically parsed from a trace CSV (see `workload::tracefile`).
///
/// Unlike every other spawn path, scripted arrivals consume *no* draws
/// from the arrival stream's RNG: the utilization trace derives from the
/// row's own `trace_seed`. An empty scripted list therefore leaves the
/// legacy arrival streams bit-identical, and a scripted VM's behavior
/// does not depend on its position in the file.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScriptedArrival {
    /// Arrival slot (must be >= 1; slot 0 belongs to the initial
    /// population).
    pub slot: u32,
    /// Memory footprint in GB; also determines the vCPU count.
    pub memory_gb: f64,
    /// Slots the VM stays active.
    pub lifetime_slots: u32,
    /// Utilization-trace family.
    pub kind: TraceKind,
    /// Seed of the VM's deterministic trace.
    pub trace_seed: u64,
}

impl ScriptedArrival {
    /// Validates the scripted row.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on degenerate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.slot == 0 {
            return Err(Error::invalid_config(
                "scripted arrivals land at slot >= 1 (slot 0 is the initial population)",
            ));
        }
        if !self.memory_gb.is_finite() || self.memory_gb <= 0.0 {
            return Err(Error::invalid_config(
                "scripted arrival memory must be finite and > 0",
            ));
        }
        if self.lifetime_slots == 0 {
            return Err(Error::invalid_config(
                "scripted arrival lifetime must be >= 1 slot",
            ));
        }
        Ok(())
    }
}

/// Configuration of the arrival process.
///
/// # Examples
///
/// ```
/// use geoplace_workload::arrivals::ArrivalConfig;
/// let config = ArrivalConfig::default();
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Mean number of application groups arriving per slot.
    pub groups_per_slot: f64,
    /// Mean VM lifetime in slots (exponential distribution).
    pub mean_lifetime_slots: f64,
    /// Inclusive range of group sizes, drawn uniformly.
    pub group_size_range: (u32, u32),
    /// Number of groups already running when the simulation starts.
    pub initial_groups: u32,
    /// RNG seed for the whole arrival stream.
    pub seed: u64,
    /// Flash-crowd bursts layered on top of the base stream (empty =
    /// the paper's stationary regime).
    pub bursts: Vec<BurstConfig>,
    /// Correlated-batch cohorts injected at fixed slots (empty = none).
    pub cohorts: Vec<CohortConfig>,
    /// Trace-scripted arrivals injected at fixed slots (empty = none);
    /// they ride alongside the synthetic streams without perturbing
    /// their RNG draws.
    pub scripted: Vec<ScriptedArrival>,
    /// Heterogeneous fleet composition; when non-empty it replaces the
    /// paper's size/profile distributions (each *group* draws one
    /// class, so application tiers stay internally homogeneous).
    pub mix: FleetMix,
    /// Per-day multipliers on the base arrival rate, cycled over the
    /// horizon (`factors[day % len]`); empty = a flat week. This is the
    /// weekly-seasonality knob: business-day peaks, weekend troughs.
    pub day_rate_factors: Vec<f64>,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            groups_per_slot: 3.0,
            mean_lifetime_slots: 48.0,
            group_size_range: (1, 6),
            initial_groups: 120,
            seed: 0xA11CE,
            bursts: Vec::new(),
            cohorts: Vec::new(),
            scripted: Vec::new(),
            mix: FleetMix::default(),
            day_rate_factors: Vec::new(),
        }
    }
}

impl ArrivalConfig {
    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any rate or range is degenerate.
    pub fn validate(&self) -> Result<()> {
        if !self.groups_per_slot.is_finite() || self.groups_per_slot < 0.0 {
            return Err(Error::invalid_config("groups_per_slot must be >= 0"));
        }
        if !self.mean_lifetime_slots.is_finite() || self.mean_lifetime_slots <= 0.0 {
            return Err(Error::invalid_config(
                "mean_lifetime_slots must be finite and > 0",
            ));
        }
        let (lo, hi) = self.group_size_range;
        if lo == 0 || lo > hi {
            return Err(Error::invalid_config(
                "group_size_range must satisfy 1 <= lo <= hi",
            ));
        }
        for burst in &self.bursts {
            burst.validate()?;
        }
        for cohort in &self.cohorts {
            cohort.validate()?;
        }
        for row in &self.scripted {
            row.validate()?;
        }
        self.mix.validate()?;
        if !self.day_rate_factors.is_empty()
            && self
                .day_rate_factors
                .iter()
                .any(|f| !f.is_finite() || *f < 0.0)
        {
            return Err(Error::invalid_config(
                "day_rate_factors must be finite and >= 0",
            ));
        }
        Ok(())
    }

    /// The base arrival rate for `slot` after weekly seasonality: the
    /// configured mean scaled by the slot's day factor.
    pub fn rate_at(&self, slot: TimeSlot) -> f64 {
        if self.day_rate_factors.is_empty() {
            return self.groups_per_slot;
        }
        let day = slot.day() as usize % self.day_rate_factors.len();
        self.groups_per_slot * self.day_rate_factors[day]
    }

    /// Expected steady-state VM population (Little's law:
    /// arrival rate × mean group size × mean lifetime).
    pub fn expected_population(&self) -> f64 {
        let mean_group = (self.group_size_range.0 + self.group_size_range.1) as f64 / 2.0;
        self.groups_per_slot * mean_group * self.mean_lifetime_slots
    }
}

/// Generator of [`VmSpec`]s over time.
///
/// # Examples
///
/// ```
/// use geoplace_workload::arrivals::{ArrivalConfig, ArrivalProcess};
/// use geoplace_types::time::TimeSlot;
///
/// let mut process = ArrivalProcess::new(ArrivalConfig::default()).unwrap();
/// let initial = process.initial_population();
/// assert!(!initial.is_empty());
/// let newcomers = process.arrivals_for(TimeSlot(1));
/// // Arrivals are Poisson; any count (including zero) is possible.
/// let _ = newcomers.len();
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    config: ArrivalConfig,
    rng: StdRng,
    group_arrivals: Poisson,
    lifetimes: Exponential,
    sizes: WeightedChoice<Gigabytes>,
    profiles: WeightedChoice<TraceKind>,
    /// Class picker when a heterogeneous mix is configured (indices into
    /// `config.mix.classes`).
    classes: Option<WeightedChoice<usize>>,
    /// Per-burst samplers, index-aligned with `config.bursts`.
    burst_arrivals: Vec<Poisson>,
    burst_lifetimes: Vec<Exponential>,
    /// Departure slots of every VM each burst has spawned so far — the
    /// live ones (departure > current slot) count against `peak_vms`.
    burst_departures: Vec<Vec<u32>>,
    next_vm: u32,
    next_group: u32,
}

impl ArrivalProcess {
    /// Creates the process from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: ArrivalConfig) -> Result<Self> {
        config.validate()?;
        let classes = if config.mix.is_empty() {
            None
        } else {
            Some(
                WeightedChoice::new(
                    config
                        .mix
                        .classes
                        .iter()
                        .enumerate()
                        .map(|(index, class)| (index, class.weight))
                        .collect(),
                )
                .ok_or_else(|| Error::invalid_config("fleet mix weights"))?,
            )
        };
        let burst_arrivals = config
            .bursts
            .iter()
            .map(|b| Poisson::new(b.groups_per_slot).ok_or_else(|| Error::invalid_config("burst")))
            .collect::<Result<Vec<_>>>()?;
        let burst_lifetimes = config
            .bursts
            .iter()
            .map(|b| {
                Exponential::with_mean(b.mean_lifetime_slots)
                    .ok_or_else(|| Error::invalid_config("burst lifetime"))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ArrivalProcess {
            rng: StdRng::seed_from_u64(config.seed),
            group_arrivals: Poisson::new(config.groups_per_slot)
                .ok_or_else(|| Error::invalid_config("groups_per_slot"))?,
            lifetimes: Exponential::with_mean(config.mean_lifetime_slots)
                .ok_or_else(|| Error::invalid_config("mean_lifetime_slots"))?,
            // Paper: "the size of the VMs are in the range of 2, 4, and 8 GB
            // according to the distribution of 60 %, 30 % and 10 %".
            sizes: WeightedChoice::new(vec![
                (Gigabytes(2.0), 0.6),
                (Gigabytes(4.0), 0.3),
                (Gigabytes(8.0), 0.1),
            ])
            .expect("static weights are valid"),
            // Mix of trace archetypes.
            profiles: WeightedChoice::new(vec![
                (TraceKind::WebServing, 0.5),
                (TraceKind::Batch, 0.35),
                (TraceKind::Hpc, 0.15),
            ])
            .expect("static weights are valid"),
            classes,
            burst_arrivals,
            burst_lifetimes,
            burst_departures: vec![Vec::new(); config.bursts.len()],
            config,
            next_vm: 0,
            next_group: 0,
        })
    }

    /// The VMs already running at slot 0.
    ///
    /// Their remaining lifetimes are exponential (memorylessness makes the
    /// residual of an exponential lifetime exponential again), so the
    /// population starts in its stationary regime.
    pub fn initial_population(&mut self) -> Vec<VmSpec> {
        let mut vms = Vec::new();
        if self.config.mix.is_empty() {
            for _ in 0..self.config.initial_groups {
                let group = self.fresh_group();
                let size = self.group_size();
                for _ in 0..size {
                    vms.push(self.spawn_vm(group, TimeSlot(0)));
                }
            }
        } else {
            // Exact apportionment: the initial groups split across the mix
            // classes by largest remainder, so the slot-0 composition is a
            // deterministic function of the weights (and sums exactly).
            let counts = self.config.mix.apportion(self.config.initial_groups);
            for (class_index, &count) in counts.iter().enumerate() {
                for _ in 0..count {
                    let group = self.fresh_group();
                    let size = self.group_size();
                    for _ in 0..size {
                        vms.push(self.spawn_class_vm(group, TimeSlot(0), class_index));
                    }
                }
            }
        }
        vms
    }

    /// VMs arriving at the boundary of `slot` (they are active from `slot`
    /// onwards): the base Poisson stream (scaled by the slot's weekly day
    /// factor), then scheduled cohorts, then flash-crowd bursts — each
    /// section draws from the RNG in a fixed order, so the stream is a
    /// pure function of the configuration and seed.
    pub fn arrivals_for(&mut self, slot: TimeSlot) -> Vec<VmSpec> {
        let groups = if self.config.day_rate_factors.is_empty() {
            self.group_arrivals.sample(&mut self.rng)
        } else {
            Poisson::new(self.config.rate_at(slot))
                .expect("validated day factors keep the rate finite")
                .sample(&mut self.rng)
        };
        let mut vms = Vec::new();
        for _ in 0..groups {
            let group = self.fresh_group();
            let size = self.group_size();
            if let Some(class_index) = self.pick_class() {
                for _ in 0..size {
                    vms.push(self.spawn_class_vm(group, slot, class_index));
                }
            } else {
                for _ in 0..size {
                    vms.push(self.spawn_vm(group, slot));
                }
            }
        }
        self.spawn_cohorts(slot, &mut vms);
        self.spawn_bursts(slot, &mut vms);
        self.spawn_scripted(slot, &mut vms);
        vms
    }

    /// Spawns every trace-scripted arrival scheduled exactly at `slot`.
    /// Draws *nothing* from the stream RNG: the trace parameters come
    /// from the row's own seed, so the synthetic streams above are
    /// bit-identical whether or not a trace rides along.
    fn spawn_scripted(&mut self, slot: TimeSlot, vms: &mut Vec<VmSpec>) {
        for index in 0..self.config.scripted.len() {
            let row = self.config.scripted[index];
            if row.slot != slot.0 {
                continue;
            }
            let group = self.fresh_group();
            let id = VmId(self.next_vm);
            self.next_vm += 1;
            let params = TraceParams::sample(row.kind, &mut StdRng::seed_from_u64(row.trace_seed));
            vms.push(VmSpec::new(
                id,
                group,
                Gigabytes(row.memory_gb),
                slot,
                row.lifetime_slots,
                VmTrace::new(params, row.trace_seed),
            ));
        }
    }

    /// Spawns every cohort scheduled exactly at `slot` as one fully
    /// meshed application group of batch VMs with a fixed lifetime.
    fn spawn_cohorts(&mut self, slot: TimeSlot, vms: &mut Vec<VmSpec>) {
        for index in 0..self.config.cohorts.len() {
            let cohort = self.config.cohorts[index];
            if cohort.slot != slot.0 {
                continue;
            }
            let group = self.fresh_group();
            for _ in 0..cohort.vms {
                let memory = *self.sizes.sample(&mut self.rng);
                let vm =
                    self.spawn_vm_as(group, slot, TraceKind::Batch, memory, cohort.lifetime_slots);
                vms.push(vm);
            }
        }
    }

    /// Spawns flash-crowd arrivals for every burst covering `slot`,
    /// clamped so each burst's concurrently active VMs never exceed its
    /// `peak_vms` cap.
    fn spawn_bursts(&mut self, slot: TimeSlot, vms: &mut Vec<VmSpec>) {
        for index in 0..self.config.bursts.len() {
            let burst = self.config.bursts[index];
            if !burst.covers(slot) {
                continue;
            }
            // Drop departed burst VMs from the concurrency ledger.
            self.burst_departures[index].retain(|&departure| departure > slot.0);
            let groups = self.burst_arrivals[index].sample(&mut self.rng);
            for _ in 0..groups {
                let alive = self.burst_departures[index].len() as u32;
                let headroom = burst.peak_vms.saturating_sub(alive);
                if headroom == 0 {
                    break; // admission control: the crowd is turned away
                }
                let size = self.group_size().min(headroom);
                let group = self.fresh_group();
                for _ in 0..size {
                    let lifetime = self.burst_lifetimes[index]
                        .sample(&mut self.rng)
                        .ceil()
                        .max(1.0) as u32;
                    let memory = *self.sizes.sample(&mut self.rng);
                    let vm = self.spawn_vm_as(group, slot, TraceKind::WebServing, memory, lifetime);
                    self.burst_departures[index].push(vm.departure().0);
                    vms.push(vm);
                }
            }
        }
    }

    /// The configuration this process was created from.
    pub fn config(&self) -> &ArrivalConfig {
        &self.config
    }

    /// Appends the process's mutable position — RNG stream, id/group
    /// watermarks and the per-burst concurrency ledgers — to a checkpoint
    /// section. The samplers are pure functions of the config and are the
    /// rebuild's job.
    pub fn save_state(&self, w: &mut geoplace_types::snap::SnapWriter) {
        for word in self.rng.state() {
            w.write_u64(word);
        }
        w.write_u32(self.next_vm);
        w.write_u32(self.next_group);
        w.write_u32(self.burst_departures.len() as u32);
        for ledger in &self.burst_departures {
            w.write_u32(ledger.len() as u32);
            for &departure in ledger {
                w.write_u32(departure);
            }
        }
    }

    /// Restores the mutable position saved by
    /// [`ArrivalProcess::save_state`] onto a process rebuilt from the
    /// same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`geoplace_types::Error::Snapshot`] on truncation or when
    /// the burst-ledger count disagrees with the configuration.
    pub fn restore_state(&mut self, r: &mut geoplace_types::snap::SnapReader<'_>) -> Result<()> {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.read_u64()?;
        }
        let next_vm = r.read_u32()?;
        let next_group = r.read_u32()?;
        let at = r.offset();
        let bursts = r.read_u32()? as usize;
        if bursts != self.config.bursts.len() {
            return Err(geoplace_types::Error::snapshot(
                "arrivals",
                at,
                format!(
                    "snapshot has {bursts} burst ledgers, config declares {}",
                    self.config.bursts.len()
                ),
            ));
        }
        let mut burst_departures = Vec::with_capacity(bursts);
        for _ in 0..bursts {
            let len = r.read_u32()? as usize;
            let mut ledger = Vec::with_capacity(len);
            for _ in 0..len {
                ledger.push(r.read_u32()?);
            }
            burst_departures.push(ledger);
        }
        self.rng = StdRng::from_state(state);
        self.next_vm = next_vm;
        self.next_group = next_group;
        self.burst_departures = burst_departures;
        Ok(())
    }

    fn fresh_group(&mut self) -> GroupId {
        let id = GroupId(self.next_group);
        self.next_group += 1;
        id
    }

    fn group_size(&mut self) -> u32 {
        let (lo, hi) = self.config.group_size_range;
        self.rng.gen_range(lo..=hi)
    }

    /// Draws one class index when a heterogeneous mix is configured
    /// (`None` on the legacy homogeneous fleet — no RNG is consumed, so
    /// mix-free configurations keep their historical arrival streams).
    fn pick_class(&mut self) -> Option<usize> {
        match &self.classes {
            Some(classes) => Some(*classes.sample(&mut self.rng)),
            None => None,
        }
    }

    /// Legacy spawn path: memory, lifetime and archetype all drawn from
    /// the paper's distributions (draw order is load-bearing — it pins
    /// the RNG stream of every pre-scenario-library world).
    fn spawn_vm(&mut self, group: GroupId, arrival: TimeSlot) -> VmSpec {
        let memory = *self.sizes.sample(&mut self.rng);
        let lifetime = self.lifetimes.sample(&mut self.rng).ceil().max(1.0) as u32;
        let kind = *self.profiles.sample(&mut self.rng);
        self.spawn_vm_as(group, arrival, kind, memory, lifetime)
    }

    /// Spawns one VM of a mix class: footprint and archetype come from
    /// the class, the lifetime from the shared exponential.
    fn spawn_class_vm(&mut self, group: GroupId, arrival: TimeSlot, class_index: usize) -> VmSpec {
        let class = self.config.mix.classes[class_index];
        let lifetime = self.lifetimes.sample(&mut self.rng).ceil().max(1.0) as u32;
        self.spawn_vm_as(
            group,
            arrival,
            class.kind,
            Gigabytes(class.memory_gb),
            lifetime,
        )
    }

    /// Shared tail of every spawn path: trace parameters and seed.
    fn spawn_vm_as(
        &mut self,
        group: GroupId,
        arrival: TimeSlot,
        kind: TraceKind,
        memory: Gigabytes,
        lifetime_slots: u32,
    ) -> VmSpec {
        let id = VmId(self.next_vm);
        self.next_vm += 1;
        let params = TraceParams::sample(kind, &mut self.rng);
        let trace_seed = self.rng.gen();
        VmSpec::new(
            id,
            group,
            memory,
            arrival,
            lifetime_slots,
            VmTrace::new(params, trace_seed),
        )
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn default_config_is_valid() {
        assert!(ArrivalConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ArrivalConfig::default();
        c.mean_lifetime_slots = 0.0;
        assert!(c.validate().is_err());

        let mut c = ArrivalConfig::default();
        c.group_size_range = (0, 4);
        assert!(c.validate().is_err());

        let mut c = ArrivalConfig::default();
        c.group_size_range = (5, 2);
        assert!(c.validate().is_err());

        let mut c = ArrivalConfig::default();
        c.groups_per_slot = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn scripted_arrivals_do_not_perturb_the_synthetic_stream() {
        let base = ArrivalConfig::default();
        let mut traced = base.clone();
        traced.scripted = vec![ScriptedArrival {
            slot: 2,
            memory_gb: 4.0,
            lifetime_slots: 6,
            kind: TraceKind::Hpc,
            trace_seed: 99,
        }];
        let mut a = ArrivalProcess::new(base).unwrap();
        let mut b = ArrivalProcess::new(traced).unwrap();
        assert_eq!(a.initial_population(), b.initial_population());
        for s in 1..=4u32 {
            let va = a.arrivals_for(TimeSlot(s));
            let vb = b.arrivals_for(TimeSlot(s));
            if s < 2 {
                assert_eq!(va, vb, "slot {s}: identical before the script fires");
            } else if s == 2 {
                assert_eq!(vb.len(), va.len() + 1);
                assert_eq!(va, vb[..va.len()], "scripted VMs append after the streams");
                let scripted = vb.last().unwrap();
                assert_eq!(scripted.memory(), Gigabytes(4.0));
                assert_eq!(scripted.departure().0, 2 + 6);
            } else {
                // Ids shift by the scripted VM, but every synthetic draw
                // (memory, lifetime) is untouched.
                assert_eq!(va.len(), vb.len(), "slot {s}");
                for (x, y) in va.iter().zip(&vb) {
                    assert_eq!(x.memory(), y.memory());
                    assert_eq!(x.departure().0.saturating_sub(s), y.departure().0 - s);
                }
            }
        }
    }

    #[test]
    fn scripted_rows_validate() {
        let row = ScriptedArrival {
            slot: 1,
            memory_gb: 2.0,
            lifetime_slots: 3,
            kind: TraceKind::WebServing,
            trace_seed: 0,
        };
        assert!(row.validate().is_ok());
        assert!(ScriptedArrival { slot: 0, ..row }.validate().is_err());
        assert!(ScriptedArrival {
            memory_gb: 0.0,
            ..row
        }
        .validate()
        .is_err());
        assert!(ScriptedArrival {
            lifetime_slots: 0,
            ..row
        }
        .validate()
        .is_err());
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let mut p = ArrivalProcess::new(ArrivalConfig::default()).unwrap();
        let mut all = p.initial_population();
        for s in 1..=5 {
            all.extend(p.arrivals_for(TimeSlot(s)));
        }
        let ids: BTreeSet<u32> = all.iter().map(|vm| vm.id().0).collect();
        assert_eq!(ids.len(), all.len(), "duplicate VmIds");
        assert_eq!(
            *ids.iter().max().unwrap() as usize,
            all.len() - 1,
            "ids not dense"
        );
    }

    #[test]
    fn memory_sizes_follow_paper_distribution() {
        let mut config = ArrivalConfig::default();
        config.initial_groups = 2000;
        config.group_size_range = (1, 1);
        let mut p = ArrivalProcess::new(config).unwrap();
        let vms = p.initial_population();
        let count = |gb: f64| vms.iter().filter(|v| v.memory().0 == gb).count() as f64;
        let n = vms.len() as f64;
        assert!((count(2.0) / n - 0.6).abs() < 0.05);
        assert!((count(4.0) / n - 0.3).abs() < 0.05);
        assert!((count(8.0) / n - 0.1).abs() < 0.05);
    }

    #[test]
    fn lifetimes_are_exponential_with_configured_mean() {
        let mut config = ArrivalConfig::default();
        config.initial_groups = 3000;
        config.group_size_range = (1, 1);
        config.mean_lifetime_slots = 40.0;
        let mut p = ArrivalProcess::new(config).unwrap();
        let vms = p.initial_population();
        let mean: f64 =
            vms.iter().map(|v| v.lifetime_slots() as f64).sum::<f64>() / vms.len() as f64;
        // ceil() adds ~0.5 bias on top of the configured mean.
        assert!((mean - 40.5).abs() < 2.0, "mean lifetime {mean}");
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut p = ArrivalProcess::new(ArrivalConfig::default()).unwrap();
            let mut sizes = vec![p.initial_population().len()];
            for s in 1..=8 {
                sizes.push(p.arrivals_for(TimeSlot(s)).len());
            }
            sizes
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn group_members_share_group_id() {
        let mut config = ArrivalConfig::default();
        config.group_size_range = (3, 3);
        config.initial_groups = 4;
        let mut p = ArrivalProcess::new(config).unwrap();
        let vms = p.initial_population();
        assert_eq!(vms.len(), 12);
        for chunk in vms.chunks(3) {
            assert!(chunk.iter().all(|vm| vm.group() == chunk[0].group()));
        }
    }

    #[test]
    fn burst_respects_peak_concurrency() {
        let mut config = ArrivalConfig::default();
        config.groups_per_slot = 0.0;
        config.initial_groups = 0;
        config.bursts = vec![BurstConfig {
            start_slot: 1,
            duration_slots: 10,
            groups_per_slot: 12.0,
            mean_lifetime_slots: 3.0,
            peak_vms: 25,
        }];
        let mut p = ArrivalProcess::new(config).unwrap();
        let mut all: Vec<VmSpec> = Vec::new();
        for s in 1..=14u32 {
            all.extend(p.arrivals_for(TimeSlot(s)));
        }
        assert!(!all.is_empty(), "a hot burst must actually spawn VMs");
        for s in 0..=20u32 {
            let active = all.iter().filter(|vm| vm.is_active_at(TimeSlot(s))).count();
            assert!(active <= 25, "slot {s}: {active} burst VMs exceed the cap");
        }
        // The cap must actually bind for a rate this hot.
        let peak = (0..=20u32)
            .map(|s| all.iter().filter(|vm| vm.is_active_at(TimeSlot(s))).count())
            .max()
            .unwrap();
        assert_eq!(peak, 25, "the admission cap should saturate");
    }

    #[test]
    fn burst_vms_are_web_serving() {
        let mut config = ArrivalConfig::default();
        config.groups_per_slot = 0.0;
        config.initial_groups = 0;
        config.bursts = vec![BurstConfig {
            start_slot: 2,
            duration_slots: 3,
            groups_per_slot: 4.0,
            mean_lifetime_slots: 2.0,
            peak_vms: 100,
        }];
        let mut p = ArrivalProcess::new(config).unwrap();
        let mut spawned = 0;
        for s in 1..=6u32 {
            for vm in p.arrivals_for(TimeSlot(s)) {
                assert!(vm.arrival().0 >= 2 && vm.arrival().0 < 5);
                assert_eq!(vm.trace().params().kind, TraceKind::WebServing);
                spawned += 1;
            }
        }
        assert!(spawned > 0);
    }

    #[test]
    fn cohort_arrives_as_one_group_with_fixed_lifetime() {
        let mut config = ArrivalConfig::default();
        config.groups_per_slot = 0.0;
        config.initial_groups = 0;
        config.cohorts = vec![CohortConfig {
            slot: 3,
            vms: 12,
            lifetime_slots: 5,
        }];
        let mut p = ArrivalProcess::new(config).unwrap();
        assert!(p.arrivals_for(TimeSlot(2)).is_empty());
        let cohort = p.arrivals_for(TimeSlot(3));
        assert_eq!(cohort.len(), 12);
        assert!(cohort.iter().all(|vm| vm.group() == cohort[0].group()));
        assert!(cohort.iter().all(|vm| vm.lifetime_slots() == 5));
        assert!(cohort
            .iter()
            .all(|vm| vm.trace().params().kind == TraceKind::Batch));
        assert!(p.arrivals_for(TimeSlot(4)).is_empty());
    }

    #[test]
    fn mix_apportions_initial_groups_exactly() {
        use crate::mix::{FleetMix, VmClass};
        let mut config = ArrivalConfig::default();
        config.initial_groups = 10;
        config.group_size_range = (1, 1);
        config.mix = FleetMix {
            classes: vec![
                VmClass {
                    kind: TraceKind::WebServing,
                    memory_gb: 2.0,
                    weight: 0.8,
                },
                VmClass {
                    kind: TraceKind::Hpc,
                    memory_gb: 8.0,
                    weight: 0.2,
                },
            ],
        };
        let mut p = ArrivalProcess::new(config).unwrap();
        let vms = p.initial_population();
        assert_eq!(vms.len(), 10, "singleton groups: one VM per group");
        let web = vms
            .iter()
            .filter(|vm| vm.trace().params().kind == TraceKind::WebServing)
            .count();
        let hpc = vms
            .iter()
            .filter(|vm| vm.trace().params().kind == TraceKind::Hpc)
            .count();
        assert_eq!((web, hpc), (8, 2));
        assert!(vms
            .iter()
            .filter(|vm| vm.trace().params().kind == TraceKind::Hpc)
            .all(|vm| vm.memory().0 == 8.0));
    }

    #[test]
    fn day_rate_factors_shape_the_week() {
        let mut config = ArrivalConfig::default();
        config.groups_per_slot = 5.0;
        config.initial_groups = 0;
        // Dead weekend: days 5 and 6 have zero arrivals.
        config.day_rate_factors = vec![1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0];
        assert!(config.validate().is_ok());
        assert_eq!(config.rate_at(TimeSlot(12)), 5.0);
        assert_eq!(config.rate_at(TimeSlot(5 * 24 + 3)), 0.0);
        let mut p = ArrivalProcess::new(config).unwrap();
        let mut weekday = 0usize;
        let mut weekend = 0usize;
        for s in 1..168u32 {
            let n = p.arrivals_for(TimeSlot(s)).len();
            if s / 24 >= 5 {
                weekend += n;
            } else {
                weekday += n;
            }
        }
        assert!(weekday > 0);
        assert_eq!(weekend, 0, "zero factor must silence the weekend");
    }

    #[test]
    fn new_knobs_are_validated() {
        let mut c = ArrivalConfig::default();
        c.bursts = vec![BurstConfig {
            start_slot: 0,
            duration_slots: 0,
            groups_per_slot: 1.0,
            mean_lifetime_slots: 1.0,
            peak_vms: 10,
        }];
        assert!(c.validate().is_err());

        let mut c = ArrivalConfig::default();
        c.bursts = vec![BurstConfig {
            start_slot: 0,
            duration_slots: 2,
            groups_per_slot: 1.0,
            mean_lifetime_slots: 1.0,
            peak_vms: 0,
        }];
        assert!(c.validate().is_err());

        let mut c = ArrivalConfig::default();
        c.bursts = vec![BurstConfig {
            start_slot: 0,
            duration_slots: 2,
            groups_per_slot: 1.0,
            mean_lifetime_slots: f64::INFINITY,
            peak_vms: 10,
        }];
        assert!(c.validate().is_err(), "validate-then-construct contract");

        let mut c = ArrivalConfig::default();
        c.cohorts = vec![CohortConfig {
            slot: 0,
            vms: 4,
            lifetime_slots: 2,
        }];
        assert!(c.validate().is_err(), "slot-0 cohorts can never spawn");

        let mut c = ArrivalConfig::default();
        c.day_rate_factors = vec![1.0, f64::NAN];
        assert!(c.validate().is_err());
    }

    #[test]
    fn legacy_stream_unchanged_by_inert_knobs() {
        // The scenario knobs must not perturb the RNG stream of a world
        // that does not use them: a default config and one with an
        // out-of-window burst produce identical base arrivals.
        let spawn_summary = |config: ArrivalConfig| -> Vec<(u32, u32, u64)> {
            let mut p = ArrivalProcess::new(config).unwrap();
            let mut all = p.initial_population();
            for s in 1..=6u32 {
                all.extend(p.arrivals_for(TimeSlot(s)));
            }
            all.iter()
                .map(|vm| (vm.id().0, vm.lifetime_slots(), vm.memory().0.to_bits()))
                .collect()
        };
        let base = spawn_summary(ArrivalConfig::default());
        let mut inert = ArrivalConfig::default();
        inert.bursts = vec![BurstConfig {
            start_slot: 1000,
            duration_slots: 2,
            groups_per_slot: 5.0,
            mean_lifetime_slots: 1.0,
            peak_vms: 10,
        }];
        inert.cohorts = vec![CohortConfig {
            slot: 999,
            vms: 3,
            lifetime_slots: 1,
        }];
        assert_eq!(base, spawn_summary(inert));
    }

    #[test]
    fn expected_population_uses_littles_law() {
        let config = ArrivalConfig {
            groups_per_slot: 2.0,
            mean_lifetime_slots: 10.0,
            group_size_range: (2, 4),
            ..ArrivalConfig::default()
        };
        assert!((config.expected_population() - 60.0).abs() < 1e-9);
    }
}
