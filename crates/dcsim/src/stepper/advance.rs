//! Phase 1 of the slot lifecycle: cross one slot boundary and refresh
//! every observation structure the policy will decide over.

use super::SlotStepper;
use crate::events;
use crate::snapshot::DcInfo;
use geoplace_types::time::{TimeSlot, TICKS_PER_SLOT};
use geoplace_types::units::EurosPerKwh;
use geoplace_types::Result;
use geoplace_workload::cpucorr::{CorrelationMetric, CpuCorrelationMatrix};
use geoplace_workload::fleet::FleetDelta;
use geoplace_workload::source::DeltaSource;

impl SlotStepper {
    /// Crosses the next slot boundary: resolves the event timeline's
    /// per-slot factors, pulls the boundary's [`FleetDelta`] from
    /// `source` (slot 0 bootstraps from the initial population and
    /// consults no source), maintains the observation windows (building
    /// them from the fleet at slot 0 and on the first slot after a
    /// restore), refills the traffic CSR from the pair map, computes the
    /// slot's CPU correlation and per-DC info blocks, and arms the
    /// decision phase.
    ///
    /// Returns the boundary's delta so a driver can report the churn.
    ///
    /// # Errors
    ///
    /// Returns an error — leaving the world at the previous boundary,
    /// ready for a retry — when a slot is already awaiting its decision,
    /// when the horizon is exhausted, or when `source` rejects its event
    /// batch.
    pub fn advance_world(&mut self, source: &mut dyn DeltaSource) -> Result<FleetDelta> {
        self.require_phase(false)?;
        if self.next_slot >= self.horizon() {
            return Err(geoplace_types::Error::invalid_config(format!(
                "horizon of {} slots is exhausted",
                self.horizon()
            )));
        }
        let slot_index = self.next_slot;
        let slot = TimeSlot(slot_index);
        let n_dcs = self.scenario.dcs.len();

        // Per-slot world perturbations: the event timeline's factors per
        // DC and the usable servers after derates. All deterministic in
        // (config, slot).
        let timeline = &self.scenario.config.timeline;
        self.scratch.factors.clear();
        self.scratch
            .factors
            .extend((0..n_dcs).map(|d| timeline.resolve(d, slot)));
        self.scratch.usable_servers.clear();
        self.scratch.usable_servers.extend(
            self.server_counts
                .iter()
                .zip(&self.scratch.factors)
                .map(|(&servers, factors)| {
                    if factors.outaged {
                        // A downed DC collapses to the one-server rollback
                        // floor: decisions that still target it stay
                        // structurally valid, but the engine evacuates its
                        // fleet and policies see the scarcity.
                        1
                    } else {
                        events::effective_servers(servers, factors.capacity)
                    }
                }),
        );

        // --- Observation phase: the previous interval's data.
        let delta = if slot_index > 0 {
            source.advance(&mut self.scenario.fleet, slot)?
        } else {
            FleetDelta::default()
        };
        let fleet = &self.scenario.fleet;
        if self.scratch.warm {
            // Last slot's *actual* windows are exactly this slot's
            // observation for every surviving VM: swap the buffers and
            // reconcile the churn — only arrivals' rows are synthesized.
            std::mem::swap(&mut self.scratch.observed, &mut self.scratch.actual);
            let obs_slot = slot.prev().expect("a warm scratch has run a slot");
            self.scratch.observed.reconcile(fleet.active(), |vm, row| {
                fleet
                    .vm(vm)
                    .expect("active VM")
                    .trace()
                    .window_into(obs_slot, row)
            });
        } else {
            // Cold scratch: build the observation from the fleet. Slot 0
            // bootstraps from an all-zero window — no interval has been
            // observed yet, and peeking at the running slot's own samples
            // would be look-ahead bias in the first decision. After a
            // restore the traces, pure functions of (VM, slot), give back
            // the previous interval bit for bit.
            match slot.prev() {
                Some(prev) => fleet.windows_into(prev, &mut self.scratch.observed),
                None => self
                    .scratch
                    .observed
                    .fill(fleet.active(), TICKS_PER_SLOT, |_, _| {}),
            }
            self.scratch.warm = true;
        }
        // `assignment.retain` below binary-searches the active list;
        // the fleet's sorted-active invariant is what makes that (and
        // the windows' id-ordered reconcile) sound.
        debug_assert!(
            fleet.active().windows(2).all(|pair| pair[0] < pair[1]),
            "fleet active set must be strictly sorted"
        );
        self.scratch.active.clear();
        self.scratch.active.extend_from_slice(fleet.active());
        let active = &self.scratch.active;
        self.assignment
            .retain(|vm, _| active.binary_search(vm).is_ok());

        fleet.windows_into(slot, &mut self.scratch.actual);
        self.scratch.arena.refill(self.scratch.observed.ids());

        // Slot 0's zero observation carries no pairwise information;
        // the canonical degenerate matrix (all pairs fully correlated,
        // no retained edges) is what every metric computes over zero
        // windows, and — unlike an actual compute — it is identical
        // whichever builder the crossover selects, so the bootstrap
        // decision does not depend on it. Last slot's matrix goes first,
        // so the two never coexist.
        self.cpu_corr = None;
        self.cpu_corr = Some(if slot_index == 0 {
            CpuCorrelationMatrix::degenerate(
                self.scratch.observed.ids(),
                &self.scenario.config.sparsity,
            )
        } else {
            CpuCorrelationMatrix::compute_auto_exec(
                &self.scratch.observed,
                CorrelationMetric::PeakCoincidence,
                &self.scenario.config.sparsity,
                self.exec,
            )
        });
        self.scratch
            .traffic
            .refill(fleet.data_correlation(), &self.scratch.arena);
        self.scratch.vm_cores.clear();
        self.scratch.vm_memory.clear();
        for &id in self.scratch.observed.ids() {
            let vm = fleet.vm(id).expect("active VM");
            self.scratch.vm_cores.push(vm.cores());
            self.scratch.vm_memory.push(vm.memory());
        }
        self.dc_infos = self.compute_dc_infos(slot);

        self.enter_decision_phase();
        Ok(delta)
    }

    /// Per-DC info block for the snapshot.
    ///
    /// The scratch's `usable_servers` and `factors` carry the slot's
    /// event-timeline effects: policies observe the derated capacity and
    /// the spiked tariff — and are expected to react to both.
    fn compute_dc_infos(&self, slot: TimeSlot) -> Vec<DcInfo> {
        let usable_servers = &self.scratch.usable_servers;
        let effective: Vec<(EurosPerKwh, geoplace_energy::price::PriceLevel)> = self
            .scenario
            .dcs
            .iter()
            .zip(&self.scratch.factors)
            .map(|(d, factors)| super::effective_tariff(&d.price, slot, factors.price))
            .collect();
        let prices: Vec<EurosPerKwh> = effective.iter().map(|&(p, _)| p).collect();
        // Day-averaged tariffs, normalized over the fleet. Deliberately
        // the *base* schedule: placements weigh the structural daily
        // landscape; transient spikes act through the spot price above.
        let daily_avg: Vec<f64> = self
            .scenario
            .dcs
            .iter()
            .map(|d| {
                (0..24u32)
                    .map(|h| d.price.price_at(TimeSlot(h)).0)
                    .sum::<f64>()
                    / 24.0
            })
            .collect();
        let avg_min = daily_avg.iter().cloned().fold(f64::MAX, f64::min);
        let avg_max = daily_avg.iter().cloned().fold(0.0f64, f64::max);
        let avg_span = (avg_max - avg_min).max(1e-12);
        let min_p =
            prices.iter().cloned().fold(
                EurosPerKwh(f64::MAX),
                |a, b| {
                    if b.0 < a.0 {
                        b
                    } else {
                        a
                    }
                },
            );
        let max_p = prices
            .iter()
            .cloned()
            .fold(EurosPerKwh(0.0), |a, b| if b.0 > a.0 { b } else { a });
        self.scenario
            .dcs
            .iter()
            .enumerate()
            .zip(daily_avg.iter())
            .map(|((index, d), &avg)| {
                let (price, price_level) = effective[index];
                let relative_price = geoplace_energy::price::relative_of(price, min_p, max_p);
                DcInfo {
                    id: d.id,
                    servers: usable_servers[index],
                    power_model: d.power_model.clone(),
                    battery_available: d.battery.available_energy(),
                    battery_headroom: d.battery.headroom(),
                    pv_forecast: d.forecaster.forecast(slot),
                    pv_forecast_day: (0..24u32).map(|k| d.forecaster.forecast(slot + k)).sum(),
                    battery_day: (d.battery.capacity() - d.battery.reserve_floor()) * 0.95,
                    price,
                    price_level,
                    relative_price,
                    avg_relative_price: ((avg - avg_min) / avg_span).clamp(0.0, 1.0),
                    last_it_energy: d.last_it_energy,
                    last_total_energy: d.last_total_energy,
                    pue: d.pue_at(slot),
                    outaged: self.scratch.factors[index].outaged,
                }
            })
            .collect()
    }
}
