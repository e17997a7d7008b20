//! The live VM population: arrivals, departures, utilization windows and
//! both correlation structures, advanced slot by slot.

use crate::arrivals::{ArrivalConfig, ArrivalProcess};
use crate::datacorr::{DataCorrelation, DataCorrelationConfig};
use crate::trace::{TraceKind, TraceParams, VmTrace};
use crate::vm::{GroupId, VmSpec};
use crate::window::UtilizationWindows;
use geoplace_types::time::TimeSlot;
use geoplace_types::units::Gigabytes;
use geoplace_types::{Error, Result, VmId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// What changed at a slot boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetDelta {
    /// VMs that became active this slot.
    pub arrived: Vec<VmId>,
    /// VMs that departed at this slot boundary.
    pub departed: Vec<VmId>,
}

/// One externally announced VM arrival for
/// [`VmFleet::advance_external`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalArrival {
    /// Fresh id, never seen by this fleet before.
    pub id: VmId,
    /// Memory footprint in GB; also determines the vCPU count (1–8).
    pub memory_gb: f64,
    /// Slots the VM stays active (clamped to at least 1, like every VM).
    pub lifetime_slots: u32,
    /// Utilization-trace family the VM's synthetic load is drawn from.
    pub kind: TraceKind,
    /// Seed of the VM's deterministic trace.
    pub trace_seed: u64,
}

/// One externally announced traffic pair (re)wiring: directed rates in MB
/// per 5 s tick, applied at the next slot boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExternalPair {
    /// One endpoint.
    pub a: VmId,
    /// The other endpoint.
    pub b: VmId,
    /// Rate `a → b` in MB/tick.
    pub a_to_b_mb: f64,
    /// Rate `b → a` in MB/tick.
    pub b_to_a_mb: f64,
}

/// The batch of external world changes applied at one slot boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExternalSlotEvents {
    /// VMs arriving at the boundary.
    pub arrivals: Vec<ExternalArrival>,
    /// Explicit early departures (natural lifetime expiries happen on
    /// their own and need not be listed).
    pub departures: Vec<VmId>,
    /// Traffic pairs wired or re-rated at the boundary.
    pub traffic: Vec<ExternalPair>,
}

/// The evolving VM population of the whole geo-distributed system.
///
/// # Examples
///
/// ```
/// use geoplace_workload::fleet::{FleetConfig, VmFleet};
/// use geoplace_types::time::TimeSlot;
///
/// let mut fleet = VmFleet::new(FleetConfig::default()).unwrap();
/// assert!(!fleet.active().is_empty());
/// let delta = fleet.advance_to(TimeSlot(1));
/// // Something may arrive or depart; the fleet stays consistent.
/// assert!(delta.arrived.iter().all(|vm| fleet.active().contains(vm)));
/// ```
#[derive(Debug, Clone)]
pub struct VmFleet {
    vms: Vec<VmSpec>,
    by_id: HashMap<VmId, usize>,
    active: Vec<VmId>,
    arrivals: ArrivalProcess,
    data: DataCorrelation,
    rng: StdRng,
    current_slot: TimeSlot,
    /// One past the largest VM id ever admitted: [`VmFleet::fresh_vm_id`].
    next_id: u32,
    /// One past the largest application group ever admitted: the first
    /// group of the next external batch.
    next_group: u32,
}

/// Configuration bundling the arrival process and the traffic generator.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetConfig {
    /// Arrival/lifetime/profile parameters.
    pub arrivals: ArrivalConfig,
    /// Pairwise traffic parameters.
    pub data: DataCorrelationConfig,
}

impl VmFleet {
    /// Creates the fleet with its slot-0 initial population already active
    /// and wired with data-correlation traffic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the arrival configuration is
    /// invalid.
    pub fn new(config: FleetConfig) -> Result<Self> {
        let mut arrivals = ArrivalProcess::new(config.arrivals.clone())?;
        let mut rng = StdRng::seed_from_u64(config.arrivals.seed ^ 0xF1EE7);
        let initial = arrivals.initial_population();
        let mut data = DataCorrelation::new(config.data);
        data.connect_arrivals(&initial, &initial, &mut rng);
        let mut fleet = VmFleet {
            vms: Vec::new(),
            by_id: HashMap::new(),
            active: Vec::new(),
            arrivals,
            data,
            rng,
            current_slot: TimeSlot(0),
            next_id: 0,
            next_group: 0,
        };
        for vm in initial {
            fleet.register(vm);
        }
        fleet.active.sort_unstable();
        Ok(fleet)
    }

    /// The slot the fleet currently reflects.
    pub fn current_slot(&self) -> TimeSlot {
        self.current_slot
    }

    /// Ids of all currently active VMs, sorted.
    pub fn active(&self) -> &[VmId] {
        &self.active
    }

    /// Looks up a VM descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEntity`] for ids never seen.
    pub fn vm(&self, id: VmId) -> Result<&VmSpec> {
        self.by_id
            .get(&id)
            .map(|&i| &self.vms[i])
            .ok_or_else(|| Error::unknown_entity(id))
    }

    /// The pairwise traffic structure.
    pub fn data_correlation(&self) -> &DataCorrelation {
        &self.data
    }

    /// Advances the fleet to `slot`, processing departures, arrivals and
    /// the runtime drift of the traffic rates for each crossed boundary.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is in the past — the fleet only moves forward.
    pub fn advance_to(&mut self, slot: TimeSlot) -> FleetDelta {
        assert!(
            slot >= self.current_slot,
            "fleet cannot rewind from {} to {}",
            self.current_slot,
            slot
        );
        let mut delta = FleetDelta::default();
        while self.current_slot < slot {
            let next = self.current_slot.next();
            delta.departed.extend(self.depart(next, &[]));

            // Arrivals for the new slot.
            let newcomers = self.arrivals.arrivals_for(next);
            let population: Vec<VmSpec> = self
                .active
                .iter()
                .map(|&id| self.vms[self.by_id[&id]].clone())
                .collect();
            self.data
                .connect_arrivals(&newcomers, &population, &mut self.rng);
            for vm in newcomers {
                delta.arrived.push(vm.id());
                self.register(vm);
            }
            self.active.sort_unstable();

            // Runtime drift of the traffic volumes.
            self.data.evolve(&mut self.rng);
            self.current_slot = next;
        }
        debug_assert!(
            self.active.windows(2).all(|pair| pair[0] < pair[1]),
            "active set must stay strictly sorted"
        );
        delta
    }

    /// Advances the fleet exactly one slot boundary, driven by external
    /// events instead of the synthetic arrival process: natural lifetime
    /// expiries still depart on their own, but arrivals, explicit early
    /// departures and traffic (re)wiring come from `events`. The pairwise
    /// rates are *not* drifted — an external producer owns them.
    ///
    /// The whole batch is validated before any state changes: on error the
    /// fleet is untouched and the boundary has not been crossed, so the
    /// caller can correct the batch and retry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the offending event when an
    /// arrival id is stale or duplicated, a memory size is not a positive
    /// finite number, a departure names an inactive VM, or a traffic pair
    /// has invalid rates or endpoints absent after the boundary.
    pub fn advance_external(
        &mut self,
        slot: TimeSlot,
        events: &ExternalSlotEvents,
    ) -> Result<FleetDelta> {
        if slot != self.current_slot.next() {
            return Err(Error::invalid_config(format!(
                "external advance must cross exactly one boundary: fleet is at {}, asked for {}",
                self.current_slot, slot
            )));
        }
        // --- Validate everything first; commit only a fully valid batch.
        let mut batch_ids: std::collections::HashSet<VmId> = std::collections::HashSet::new();
        for arrival in &events.arrivals {
            if self.by_id.contains_key(&arrival.id) {
                return Err(Error::invalid_config(format!(
                    "arrival {} reuses an id this fleet has already seen",
                    arrival.id
                )));
            }
            if !batch_ids.insert(arrival.id) {
                return Err(Error::invalid_config(format!(
                    "arrival {} appears twice in the batch",
                    arrival.id
                )));
            }
            if !arrival.memory_gb.is_finite() || arrival.memory_gb <= 0.0 {
                return Err(Error::invalid_config(format!(
                    "arrival {} has invalid memory {} GB",
                    arrival.id, arrival.memory_gb
                )));
            }
        }
        for &vm in &events.departures {
            if self.active.binary_search(&vm).is_err() {
                return Err(Error::invalid_config(format!(
                    "departure {vm} is not an active VM"
                )));
            }
        }
        // A traffic endpoint must outlive the boundary: arrive in this
        // batch, or be active, not expire and not be departed.
        let survives = |vm: VmId| -> bool {
            batch_ids.contains(&vm)
                || (self.active.binary_search(&vm).is_ok()
                    && self.vms[self.by_id[&vm]].is_active_at(slot)
                    && !events.departures.contains(&vm))
        };
        for pair in &events.traffic {
            if pair.a == pair.b {
                return Err(Error::invalid_config(format!(
                    "traffic pair wires {} to itself",
                    pair.a
                )));
            }
            for rate in [pair.a_to_b_mb, pair.b_to_a_mb] {
                if !rate.is_finite() || rate < 0.0 {
                    return Err(Error::invalid_config(format!(
                        "traffic pair {}–{} has invalid rate {rate} MB/tick",
                        pair.a, pair.b
                    )));
                }
            }
            for vm in [pair.a, pair.b] {
                if !survives(vm) {
                    return Err(Error::invalid_config(format!(
                        "traffic pair {}–{} endpoint {vm} is not active after the boundary",
                        pair.a, pair.b
                    )));
                }
            }
        }

        // --- Commit.
        let mut delta = FleetDelta {
            departed: self.depart(slot, &events.departures),
            ..FleetDelta::default()
        };

        // Arrivals: each external VM forms its own fresh application group
        // (its traffic is whatever the producer wires explicitly).
        let next_group = self.next_group;
        for (offset, arrival) in events.arrivals.iter().enumerate() {
            let params =
                TraceParams::sample(arrival.kind, &mut StdRng::seed_from_u64(arrival.trace_seed));
            let spec = VmSpec::new(
                arrival.id,
                GroupId(next_group + offset as u32),
                Gigabytes(arrival.memory_gb),
                slot,
                arrival.lifetime_slots,
                VmTrace::new(params, arrival.trace_seed),
            );
            delta.arrived.push(spec.id());
            self.register(spec);
        }
        self.active.sort_unstable();

        for pair in &events.traffic {
            self.data
                .wire_pair(pair.a, pair.b, pair.a_to_b_mb, pair.b_to_a_mb);
        }
        self.current_slot = slot;
        debug_assert!(
            self.active.windows(2).all(|pair| pair[0] < pair[1]),
            "active set must stay strictly sorted"
        );
        Ok(delta)
    }

    /// The smallest id this fleet has never seen — what an external
    /// producer should assign to its next arrival.
    pub fn fresh_vm_id(&self) -> VmId {
        VmId(self.next_id)
    }

    /// Materializes the 5 s utilization windows of all active VMs for
    /// `slot` (normally the slot that just *ended* — controllers use the
    /// previous interval's observations).
    pub fn windows(&self, slot: TimeSlot) -> UtilizationWindows {
        let rows = self
            .active
            .iter()
            .map(|&id| {
                let vm = &self.vms[self.by_id[&id]];
                (id, vm.trace().window(slot))
            })
            .collect();
        UtilizationWindows::from_rows(rows)
    }

    /// [`VmFleet::windows`] into a persistent buffer: identical content,
    /// but the matrix and its index are refilled in place instead of
    /// reallocated — the steady-state path of the incremental pipeline.
    pub fn windows_into(&self, slot: TimeSlot, out: &mut UtilizationWindows) {
        out.fill(
            &self.active,
            geoplace_types::time::TICKS_PER_SLOT,
            |vm, row| self.vms[self.by_id[&vm]].trace().window_into(slot, row),
        );
    }

    /// Total number of VMs ever admitted.
    pub fn total_spawned(&self) -> usize {
        self.vms.len()
    }

    /// The departure step of the boundary into `slot`: the VMs whose
    /// half-open activity window ends there, plus the `explicit` early
    /// departures (all active), leave the active set and the traffic
    /// structure. Returns them sorted and deduplicated.
    fn depart(&mut self, slot: TimeSlot, explicit: &[VmId]) -> Vec<VmId> {
        let mut departed: Vec<VmId> = self
            .active
            .iter()
            .copied()
            .filter(|&id| !self.vms[self.by_id[&id]].is_active_at(slot))
            .collect();
        departed.extend_from_slice(explicit);
        departed.sort_unstable();
        departed.dedup();
        // Both lists are sorted, so one in-order merge pointer removes
        // every departure in O(active) — a `departed.contains` scan here
        // is O(active × departed) and melts under churn-storm turnover.
        let mut next_departure = 0usize;
        self.active.retain(|&id| {
            if next_departure < departed.len() && departed[next_departure] == id {
                next_departure += 1;
                false
            } else {
                true
            }
        });
        debug_assert_eq!(next_departure, departed.len());
        self.data.disconnect(&departed);
        departed
    }

    fn register(&mut self, vm: VmSpec) {
        let id = vm.id();
        self.raise_watermarks(&vm);
        self.by_id.insert(id, self.vms.len());
        self.active.push(id);
        self.vms.push(vm);
    }

    fn raise_watermarks(&mut self, vm: &VmSpec) {
        self.next_id = self.next_id.max(vm.id().0.saturating_add(1));
        self.next_group = self.next_group.max(vm.group().0.saturating_add(1));
    }
}

impl geoplace_types::snap::Snapshot for VmFleet {
    /// Saves the full fleet position: every VM ever admitted (in
    /// admission order — `advance_external`'s stale-id rejection, and
    /// the id and group watermarks a restore recomputes, range over the
    /// full history, so departed VMs must survive a restore too), the
    /// active set, the fleet RNG, the
    /// arrival-process position and the pairwise traffic state. Traces
    /// are stored as `(params, seed)` and regenerated on restore.
    fn save_state(&self, w: &mut geoplace_types::snap::SnapWriter) {
        w.write_u32(self.current_slot.0);
        for word in self.rng.state() {
            w.write_u64(word);
        }
        w.write_u32(self.vms.len() as u32);
        for vm in &self.vms {
            w.write_u32(vm.id().0);
            w.write_u32(vm.group().0);
            w.write_f64(vm.memory().0);
            w.write_u32(vm.arrival().0);
            w.write_u32(vm.lifetime_slots());
            let params = vm.trace().params();
            w.write_u8(params.kind.tag());
            w.write_f64(params.base);
            w.write_f64(params.amplitude);
            w.write_f64(params.phase_hours);
            w.write_f64(params.noise_sigma);
            w.write_f64(params.burst_duty);
            w.write_f64(params.burst_level);
            w.write_u64(vm.trace().seed());
        }
        w.write_u32(self.active.len() as u32);
        for vm in &self.active {
            w.write_u32(vm.0);
        }
        self.arrivals.save_state(w);
        self.data.save_state(w);
    }

    fn restore_state(&mut self, r: &mut geoplace_types::snap::SnapReader<'_>) -> Result<()> {
        let current_slot = TimeSlot(r.read_u32()?);
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.read_u64()?;
        }
        let vm_count = r.read_u32()? as usize;
        let mut vms = Vec::with_capacity(vm_count);
        let mut by_id = HashMap::with_capacity(vm_count);
        for _ in 0..vm_count {
            let at = r.offset();
            let id = VmId(r.read_u32()?);
            let group = GroupId(r.read_u32()?);
            let memory = Gigabytes(r.read_f64()?);
            let arrival = TimeSlot(r.read_u32()?);
            let lifetime_slots = r.read_u32()?;
            let tag = r.read_u8()?;
            let kind = TraceKind::from_tag(tag).ok_or_else(|| {
                Error::snapshot(
                    "fleet",
                    at,
                    format!("VM {id} has unknown trace kind tag {tag}"),
                )
            })?;
            let params = TraceParams {
                kind,
                base: r.read_f64()?,
                amplitude: r.read_f64()?,
                phase_hours: r.read_f64()?,
                noise_sigma: r.read_f64()?,
                burst_duty: r.read_f64()?,
                burst_level: r.read_f64()?,
            };
            let seed = r.read_u64()?;
            if by_id.insert(id, vms.len()).is_some() {
                return Err(Error::snapshot(
                    "fleet",
                    at,
                    format!("VM {id} appears twice in the fleet history"),
                ));
            }
            vms.push(VmSpec::new(
                id,
                group,
                memory,
                arrival,
                lifetime_slots,
                VmTrace::new(params, seed),
            ));
        }
        let active_count = r.read_u32()? as usize;
        let mut active = Vec::with_capacity(active_count);
        for _ in 0..active_count {
            let at = r.offset();
            let id = VmId(r.read_u32()?);
            if !by_id.contains_key(&id) {
                return Err(Error::snapshot(
                    "fleet",
                    at,
                    format!("active VM {id} is not in the fleet history"),
                ));
            }
            if active.last().is_some_and(|&prev| prev >= id) {
                return Err(Error::snapshot(
                    "fleet",
                    at,
                    format!("active set is not strictly sorted at VM {id}"),
                ));
            }
            active.push(id);
        }
        self.arrivals.restore_state(r)?;
        self.data.restore_state(r)?;
        self.current_slot = current_slot;
        self.rng = StdRng::from_state(state);
        (self.next_id, self.next_group) = (0, 0);
        for vm in &vms {
            self.raise_watermarks(vm);
        }
        self.vms = vms;
        self.by_id = by_id;
        self.active = active;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet(seed: u64) -> VmFleet {
        let mut config = FleetConfig::default();
        config.arrivals.initial_groups = 10;
        config.arrivals.groups_per_slot = 2.0;
        config.arrivals.mean_lifetime_slots = 5.0;
        config.arrivals.seed = seed;
        VmFleet::new(config).unwrap()
    }

    #[test]
    fn initial_population_is_active() {
        let fleet = small_fleet(1);
        assert!(!fleet.active().is_empty());
        assert_eq!(fleet.current_slot(), TimeSlot(0));
        for &id in fleet.active() {
            assert!(fleet.vm(id).unwrap().is_active_at(TimeSlot(0)));
        }
    }

    #[test]
    fn advance_processes_arrivals_and_departures() {
        let mut fleet = small_fleet(2);
        let mut total_arrived = 0;
        let mut total_departed = 0;
        for s in 1..=30u32 {
            let delta = fleet.advance_to(TimeSlot(s));
            total_arrived += delta.arrived.len();
            total_departed += delta.departed.len();
            // Active set must match per-VM activity windows exactly.
            for &id in fleet.active() {
                assert!(fleet.vm(id).unwrap().is_active_at(TimeSlot(s)));
            }
        }
        assert!(total_arrived > 0, "no arrivals in 30 slots");
        assert!(total_departed > 0, "no departures in 30 slots");
    }

    #[test]
    fn departures_drop_traffic_pairs() {
        let mut fleet = small_fleet(3);
        for s in 1..=20u32 {
            let delta = fleet.advance_to(TimeSlot(s));
            for gone in &delta.departed {
                assert!(fleet
                    .data_correlation()
                    .iter()
                    .all(|(a, b, _)| a != *gone && b != *gone));
            }
        }
    }

    #[test]
    fn windows_cover_exactly_the_active_set() {
        let mut fleet = small_fleet(4);
        fleet.advance_to(TimeSlot(5));
        let windows = fleet.windows(TimeSlot(4));
        assert_eq!(windows.len(), fleet.active().len());
        for &id in fleet.active() {
            assert!(windows.row(id).is_some());
        }
    }

    #[test]
    fn advance_is_deterministic() {
        let run = |seed| {
            let mut fleet = small_fleet(seed);
            for s in 1..=10u32 {
                fleet.advance_to(TimeSlot(s));
            }
            (fleet.active().to_vec(), fleet.total_spawned())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    #[should_panic(expected = "cannot rewind")]
    fn rewinding_panics() {
        let mut fleet = small_fleet(5);
        fleet.advance_to(TimeSlot(3));
        fleet.advance_to(TimeSlot(2));
    }

    #[test]
    fn unknown_vm_is_an_error() {
        let fleet = small_fleet(6);
        assert!(fleet.vm(VmId(u32::MAX)).is_err());
    }

    #[test]
    fn windows_into_matches_from_scratch() {
        let mut fleet = small_fleet(9);
        let mut buffer = UtilizationWindows::zeros(&[], 1);
        for s in 1..=6u32 {
            fleet.advance_to(TimeSlot(s));
            fleet.windows_into(TimeSlot(s - 1), &mut buffer);
            assert_eq!(buffer, fleet.windows(TimeSlot(s - 1)), "slot {s}");
        }
    }

    #[test]
    fn churn_storm_departures_stay_linear() {
        // A fleet large enough that the old O(active × departed) retain
        // (departed.contains inside the scan) takes tens of seconds: half
        // the population departs at one boundary. The merged retain is
        // O(active); give it a generous-but-binding wall-clock budget.
        use crate::arrivals::ArrivalConfig;
        let config = FleetConfig {
            arrivals: ArrivalConfig {
                initial_groups: 12_000,
                group_size_range: (4, 4),
                groups_per_slot: 0.0,
                mean_lifetime_slots: 1.5,
                ..ArrivalConfig::default()
            },
            data: crate::datacorr::DataCorrelationConfig {
                cross_links_per_vm: 0,
            },
        };
        let mut fleet = VmFleet::new(config).unwrap();
        let population = fleet.active().len();
        assert!(population >= 40_000, "population {population}");
        let start = std::time::Instant::now(); // audit:allow(D2): wall-clock regression guard in a test; timing never feeds simulation state
        let mut departed = 0usize;
        for s in 1..=4u32 {
            departed += fleet.advance_to(TimeSlot(s)).departed.len();
        }
        // Exponential lifetimes with mean 1.5 slots: the overwhelming
        // majority is gone after 4 boundaries, and nobody is lost.
        assert_eq!(departed + fleet.active().len(), population);
        assert!(departed > population / 2, "departed {departed}");
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "mass departure took {elapsed:?} — departure filtering has gone quadratic"
        );
    }

    #[test]
    fn external_advance_validates_then_commits() {
        use crate::trace::TraceKind;
        let mut fleet = small_fleet(11);
        let id = fleet.fresh_vm_id();
        let victim = fleet.active()[0];
        let events = ExternalSlotEvents {
            arrivals: vec![ExternalArrival {
                id,
                memory_gb: 8.0,
                lifetime_slots: 5,
                kind: TraceKind::Batch,
                trace_seed: 3,
            }],
            departures: vec![victim],
            traffic: vec![],
        };
        let delta = fleet.advance_external(TimeSlot(1), &events).unwrap();
        assert!(delta.arrived.contains(&id));
        assert!(delta.departed.contains(&victim));
        assert!(!fleet.active().contains(&victim));
        let spec = fleet.vm(id).unwrap();
        assert_eq!(spec.cores(), 8);
        assert_eq!(spec.arrival(), TimeSlot(1));
        // The departed VM's pairs are gone.
        assert!(fleet
            .data_correlation()
            .iter()
            .all(|(a, b, _)| a != victim && b != victim));
    }

    #[test]
    fn external_advance_rejects_bad_batches_atomically() {
        use crate::trace::TraceKind;
        let mut fleet = small_fleet(12);
        let stale = fleet.active()[0];
        let before = fleet.active().to_vec();
        let bad_arrival = |id, memory_gb| ExternalSlotEvents {
            arrivals: vec![ExternalArrival {
                id,
                memory_gb,
                lifetime_slots: 2,
                kind: TraceKind::Hpc,
                trace_seed: 0,
            }],
            ..ExternalSlotEvents::default()
        };
        // Stale id, bad memory, self-loop traffic, rewound slot: each is
        // rejected with the fleet untouched.
        assert!(fleet
            .advance_external(TimeSlot(1), &bad_arrival(stale, 4.0))
            .is_err());
        assert!(fleet
            .advance_external(TimeSlot(1), &bad_arrival(fleet.fresh_vm_id(), f64::NAN))
            .is_err());
        let self_loop = ExternalSlotEvents {
            traffic: vec![ExternalPair {
                a: stale,
                b: stale,
                a_to_b_mb: 1.0,
                b_to_a_mb: 1.0,
            }],
            ..ExternalSlotEvents::default()
        };
        assert!(fleet.advance_external(TimeSlot(1), &self_loop).is_err());
        assert!(fleet
            .advance_external(TimeSlot(2), &ExternalSlotEvents::default())
            .is_err());
        assert_eq!(fleet.current_slot(), TimeSlot(0));
        assert_eq!(fleet.active(), &before[..]);
    }

    #[test]
    fn external_traffic_wiring_reports_only_new_pairs() {
        let mut fleet = small_fleet(13);
        let (a, b) = (fleet.active()[0], fleet.active()[1]);
        let wire = |rate| ExternalSlotEvents {
            traffic: vec![ExternalPair {
                a,
                b,
                a_to_b_mb: rate,
                b_to_a_mb: rate,
            }],
            ..ExternalSlotEvents::default()
        };
        fleet.advance_external(TimeSlot(1), &wire(2.0)).unwrap();
        // Re-rating an existing pair replaces its rates.
        fleet.advance_external(TimeSlot(2), &wire(9.0)).unwrap();
        assert_eq!(
            fleet.data_correlation().directed_rates(a, b),
            Some((9.0, 9.0))
        );
    }

    #[test]
    fn id_and_group_watermarks_survive_a_checkpoint() {
        use crate::trace::TraceKind;
        use geoplace_types::snap::{SnapReader, SnapWriter, Snapshot};
        let arrival = |id| ExternalSlotEvents {
            arrivals: vec![ExternalArrival {
                id,
                memory_gb: 2.0,
                lifetime_slots: 4,
                kind: TraceKind::Batch,
                trace_seed: 1,
            }],
            ..ExternalSlotEvents::default()
        };
        let mut fleet = small_fleet(14);
        fleet.advance_to(TimeSlot(3));
        let far = VmId(fleet.fresh_vm_id().0 + 100);
        fleet.advance_external(TimeSlot(4), &arrival(far)).unwrap();
        assert_eq!(fleet.fresh_vm_id(), VmId(far.0 + 1));
        let mut w = SnapWriter::new();
        fleet.save_state(&mut w);
        let bytes = w.into_bytes();
        // The target's own watermarks are higher: a restore recomputes
        // them from the restored history.
        let mut restored = small_fleet(14);
        restored
            .advance_external(TimeSlot(1), &arrival(VmId(1_000_000)))
            .unwrap();
        restored
            .restore_state(&mut SnapReader::new("fleet", &bytes))
            .unwrap();
        assert_eq!(restored.fresh_vm_id(), fleet.fresh_vm_id());
        // The next external arrival lands in the same fresh group.
        let next = fleet.fresh_vm_id();
        for f in [&mut fleet, &mut restored] {
            f.advance_external(TimeSlot(5), &arrival(next)).unwrap();
        }
        let group = fleet.vm(next).unwrap().group();
        assert_eq!(restored.vm(next).unwrap().group(), group);
        assert!(fleet.vm(far).unwrap().group() < group);
    }

    #[test]
    fn multi_slot_jump_equals_stepwise() {
        let mut jump = small_fleet(7);
        let mut step = small_fleet(7);
        jump.advance_to(TimeSlot(6));
        for s in 1..=6u32 {
            step.advance_to(TimeSlot(s));
        }
        assert_eq!(jump.active(), step.active());
    }
}
