//! Phase 3 of the slot lifecycle: validate and commit a placement
//! decision — migration clipping, the tick-resolution interval
//! simulation, response-time evaluation and the slot's ledger entry.

use super::{SlotMetrics, SlotStepper};
use crate::decision::PlacementDecision;
use crate::metrics::HourlyRecord;
use geoplace_energy::price::{PriceLevel, PriceSchedule};
use geoplace_network::migration::{Migration, MigrationPlan};
use geoplace_network::response::evaluate_slot;
use geoplace_network::traffic::TrafficMatrix;
use geoplace_types::time::{TimeSlot, TICK_SECONDS};
use geoplace_types::units::{EurosPerKwh, Seconds};
use geoplace_types::{DcId, Result, VmId};
use std::collections::BTreeMap;

impl SlotStepper {
    /// Validates `decision` against the advanced slot, clips its
    /// migrations against the QoS latency budget, runs the interval
    /// simulation and folds the slot into the report. On success the
    /// stepper moves to the next boundary and returns the slot's
    /// [`SlotMetrics`].
    ///
    /// # Errors
    ///
    /// Returns the validation error when the decision is structurally
    /// invalid — *before* any state changes, so the slot stays decidable
    /// and a service driver can ask its policy again. (The batch
    /// [`Simulator::run`](crate::engine::Simulator::run) escalates this
    /// to a panic: an invalid decision from a trusted in-process policy
    /// is a programming error.) Also errors when no slot is awaiting a
    /// decision.
    pub fn apply(&mut self, mut decision: PlacementDecision) -> Result<SlotMetrics> {
        self.require_phase(true)?;
        decision.validate(
            &self.scratch.active,
            &self.scratch.usable_servers,
            &self.dvfs_levels,
        )?;
        let slot_index = self.next_slot;
        let slot = TimeSlot(slot_index);
        let n_dcs = self.scenario.dcs.len();
        let mut new_dc = decision.dc_of();
        let factors = &self.scratch.factors;

        // --- Forced evacuation: a decision may still target a downed DC
        // (policies are free to ignore the `outaged` flag), but nothing
        // runs in a DC that is out. Reroute every placement targeting an
        // outaged DC to the healthiest surviving DC *before* feasibility
        // clipping, so the resulting moves flow through the migration
        // model and its ledger below. Deterministic: sorted VM order, no
        // RNG. With no active outage this whole block is a no-op.
        if factors.iter().any(|f| f.outaged) {
            let fallback = self
                .scratch
                .usable_servers
                .iter()
                .enumerate()
                .filter(|&(d, _)| !factors[d].outaged)
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(&a.0)))
                .map(|(d, _)| DcId(d as u16));
            // No surviving DC means nowhere to evacuate to; validation
            // rejects a timeline that downs every DC at once, but an
            // unvalidated one must degrade gracefully rather than panic.
            if let Some(fallback) = fallback {
                let top_freq = crate::power::FreqLevel(self.dvfs_levels[fallback.index()] - 1);
                let servers = self.scratch.usable_servers[fallback.index()];
                for &vm in &self.scratch.active {
                    let dest = new_dc[&vm];
                    if !factors[dest.index()].outaged {
                        continue;
                    }
                    decision.remove_vm(vm);
                    decision.force_host(fallback, vm, servers, top_freq);
                    new_dc.insert(vm, fallback);
                }
            }
        }

        // --- Migration feasibility (deterministic order: sorted ids).
        // The QoS latency budget is a *system* constraint (Sect. V-A:
        // "a hard time constraint for migrating the VMs across DCs"):
        // moves that cannot complete within it are rejected and the VM
        // stays in its previous DC — whichever policy asked. Policies
        // that plan within the budget (Algorithm 2) are unaffected;
        // latency-blind chasers get clipped and pay the consequences.
        let mut record = HourlyRecord {
            slot: slot_index,
            ..HourlyRecord::default()
        };
        let mut plan = MigrationPlan::new(n_dcs);
        for &vm in &self.scratch.active {
            let Some(&prev) = self.assignment.get(&vm) else {
                continue;
            };
            let dest = new_dc[&vm];
            if prev == dest {
                continue;
            }
            let size = self.scenario.fleet.vm(vm).expect("active VM").memory();
            let migration = Migration {
                vm,
                from: prev,
                to: dest,
                size,
            };
            // Feasibility under partition pressure: a degraded link
            // inflates the transfer latency by 1/link against the
            // budget. With both endpoints at full bandwidth this is
            // bit-identical to the plain budget check (x / 1.0 == x is
            // exact in IEEE — and the division is skipped entirely).
            let latency = plan
                .latency_with(&self.scenario.latency, migration, &mut self.rng)
                .0;
            let link = factors[prev.index()].link.min(factors[dest.index()].link);
            let effective_latency = if link < 1.0 { latency / link } else { latency };
            let evacuating = factors[prev.index()].outaged;
            if effective_latency <= self.budget.0 {
                plan.force_add(migration);
                record.migrations += 1;
                record.migration_volume_gb += size.0;
            } else if evacuating {
                // The source DC is down: leaving the VM behind is not an
                // option, so the evacuation commits past the budget. It
                // still lands in the plan's volume matrix — subsequent
                // candidates feel the bandwidth pressure — and the
                // busted budget is ledgered as an overrun, which is how
                // evacuation cost shows up in the report.
                plan.force_add(migration);
                record.migrations += 1;
                record.migration_volume_gb += size.0;
                record.migration_overruns += 1;
            } else {
                // Budget overrun: the VM stays in its previous DC and
                // the rejected move must leave *no* trace — neither in
                // the decision nor in the volume ledger (only accepted
                // migrations incremented it above). The rollback server
                // opens at the *previous DC's* top DVFS level — the
                // tables may differ across DCs.
                record.migration_overruns += 1;
                let removed_from = decision.remove_vm(vm);
                debug_assert_eq!(
                    removed_from,
                    Some(dest),
                    "rejected {vm} was not placed at its requested destination"
                );
                let top_freq = crate::power::FreqLevel(self.dvfs_levels[prev.index()] - 1);
                decision.force_host(
                    prev,
                    vm,
                    self.scratch.usable_servers[prev.index()],
                    top_freq,
                );
                debug_assert_eq!(
                    decision.host_dc(vm),
                    Some(prev),
                    "rejected {vm} must be rolled back to its previous DC"
                );
                new_dc.insert(vm, prev);
            }
        }
        // The clipped decision must still be a complete, structurally
        // valid placement — every rejected VM exactly once, back in
        // its previous DC, on an in-range server.
        #[cfg(debug_assertions)]
        if let Err(e) = decision.validate(
            &self.scratch.active,
            &self.scratch.usable_servers,
            &self.dvfs_levels,
        ) {
            panic!("migration clipping corrupted the decision at {slot}: {e}");
        }

        // --- Interval simulation at tick resolution, one DC per
        // worker: a DC's tick loop touches only that DC's state
        // (battery, forecaster, PV) plus shared read-only inputs.
        // Outputs fold into the record in ascending DC order, so the
        // accumulated totals are bit-identical to a serial loop at
        // every thread count.
        record.active_vms = self.scratch.active.len() as u32;
        record.active_servers = decision.active_servers() as u32;
        let outputs = {
            let green = &self.green;
            let decision_ref = &decision;
            let actual = &self.scratch.actual;
            let observed = &self.scratch.observed;
            let cores = &self.scratch.vm_cores;
            self.exec.map_mut(&mut self.scenario.dcs, |dc_index, dc| {
                let dc_id = DcId(dc_index as u16);
                let it_power = dc_it_power(
                    &dc.power_model,
                    dc_id,
                    decision_ref,
                    actual,
                    cores,
                    observed,
                );
                let pue = dc.pue_at(slot);
                let (price, level) = effective_tariff(&dc.price, slot, factors[dc_index].price);
                let pv_factor = factors[dc_index].pv;
                let mut output = DcSlotOutput::default();
                let mut pv_harvest = 0.0f64;
                // Forecast-aware arbitrage: reserve battery headroom
                // for the PV the WCMA forecaster expects over the next
                // 12 h, so cheap-hour grid charging cannot force
                // daylight curtailment.
                let pv_reserve: geoplace_types::units::Joules =
                    (1..=12u32).map(|k| dc.forecaster.forecast(slot + k)).sum();
                for (k, tick) in slot.ticks().enumerate() {
                    // Droughts scale the *produced* power, so the
                    // forecaster observes (and learns) the derated
                    // harvest on its own.
                    let pv_power = geoplace_types::units::Watts(dc.pv.power_at(tick).0 * pv_factor);
                    pv_harvest += pv_power.0 * TICK_SECONDS;
                    let it = it_power[k];
                    let demand = geoplace_types::units::Watts(it * pue);
                    let out = green.step_with_reserve(
                        pv_power,
                        demand,
                        level,
                        &mut dc.battery,
                        Seconds(TICK_SECONDS),
                        pv_reserve,
                    );
                    output.it_energy += it * TICK_SECONDS;
                    output.total_energy += demand.0 * TICK_SECONDS;
                    output.grid_energy += out.grid.0 * TICK_SECONDS;
                    output.pv_used += (out.pv_used.0 + out.pv_to_battery.0) * TICK_SECONDS;
                    output.pv_curtailed += out.pv_curtailed.0 * TICK_SECONDS;
                    output.battery_out += out.battery_to_load.0 * TICK_SECONDS;
                }
                output.cost = cost_of_joules(price, output.grid_energy);
                dc.forecaster
                    .observe(slot, geoplace_types::units::Joules(pv_harvest));
                dc.last_it_energy = geoplace_types::units::Joules(output.it_energy);
                dc.last_total_energy = geoplace_types::units::Joules(output.total_energy);
                output
            })
        };
        for (dc_index, output) in outputs.iter().enumerate() {
            record.cost_eur += output.cost;
            record.it_energy_j += output.it_energy;
            record.total_energy_j += output.total_energy;
            record.grid_energy_j += output.grid_energy;
            record.pv_used_j += output.pv_used;
            record.pv_curtailed_j += output.pv_curtailed;
            record.battery_discharge_j += output.battery_out;
            self.report.per_dc_energy_gj[dc_index] += output.total_energy / 1e9;
        }

        // --- Response time of the slot's inter-DC data traffic. A
        // network partition stretches every response seen at the
        // degraded DC by the inverse residual bandwidth; untouched DCs
        // keep their exact (bit-identical) latencies.
        let dc_traffic = self.inter_dc_traffic(&new_dc, n_dcs);
        let mut response = evaluate_slot(&self.scenario.latency, &dc_traffic, &mut self.rng);
        for (dc, t) in response.per_dc.iter_mut() {
            let link = factors[dc.index()].link;
            if link < 1.0 {
                t.0 /= link;
            }
        }
        record.response_worst_s = response.worst().0;
        record.response_mean_s = response.mean().0;
        for &(_, t) in &response.per_dc {
            self.report.response_samples.push(t.0);
        }

        self.assignment = new_dc;
        self.report.push_hour(record);
        self.finish_slot();
        let state_hash = self.state_hash();
        Ok(SlotMetrics {
            slot,
            record,
            state_hash,
        })
    }

    /// Aggregates the fleet's pairwise volumes into a DC-level traffic
    /// matrix under the new assignment (sorted iteration for
    /// determinism).
    fn inter_dc_traffic(&self, dc_of: &BTreeMap<VmId, DcId>, n_dcs: usize) -> TrafficMatrix {
        let mut pairs: Vec<(VmId, VmId)> = self
            .scenario
            .fleet
            .data_correlation()
            .iter()
            .map(|(a, b, _)| (a, b))
            .collect();
        pairs.sort_unstable();
        let mut traffic = TrafficMatrix::new(n_dcs);
        let data = self.scenario.fleet.data_correlation();
        for (a, b) in pairs {
            let (Some(&dc_a), Some(&dc_b)) = (dc_of.get(&a), dc_of.get(&b)) else {
                continue;
            };
            // Co-located pairs land on the diagonal: their data still
            // traverses the DC's local links (NAS access), which is what
            // makes over-consolidation hurt the response time.
            traffic.add(dc_a, dc_b, data.slot_volume(a, b));
            traffic.add(dc_b, dc_a, data.slot_volume(b, a));
        }
        traffic
    }
}

/// Per-slot accumulators of one DC's interval simulation, returned from
/// the per-DC workers and folded into the hourly record in DC order.
#[derive(Debug, Clone, Copy, Default)]
struct DcSlotOutput {
    cost: f64,
    it_energy: f64,
    total_energy: f64,
    grid_energy: f64,
    pv_used: f64,
    pv_curtailed: f64,
    battery_out: f64,
}

/// IT power series (one value per tick) of one DC under `decision`,
/// using the *actual* utilization windows of the running slot. A free
/// function (not a method) so the per-DC workers can call it while
/// holding their DC mutably.
fn dc_it_power(
    model: &crate::power::ServerPowerModel,
    dc: DcId,
    decision: &PlacementDecision,
    actual_windows: &geoplace_workload::window::UtilizationWindows,
    vm_cores: &[u32],
    observed_windows: &geoplace_workload::window::UtilizationWindows,
) -> Vec<f64> {
    let width = actual_windows.width().max(1);
    let mut power = vec![0.0f64; width];
    for server in decision.dc_assignments(dc) {
        if server.vms.is_empty() {
            continue;
        }
        let mut load = vec![0.0f32; width];
        for &vm in &server.vms {
            // Cores are aligned with the *observed* windows' row order.
            let cores = observed_windows
                .position(vm)
                .map(|pos| vm_cores[pos])
                .unwrap_or(1) as f32;
            if let Some(row) = actual_windows.row(vm) {
                for (slot_load, &u) in load.iter_mut().zip(row.iter()) {
                    *slot_load += u * cores;
                }
            }
        }
        let point = model.levels()[server.freq.0];
        let capacity = model.capacity_cores(server.freq) as f32;
        let slope = point.full.0 - point.idle.0;
        for (total, &l) in power.iter_mut().zip(load.iter()) {
            let utilization = (l / capacity).clamp(0.0, 1.0) as f64;
            *total += point.idle.0 + slope * utilization;
        }
    }
    debug_assert_eq!(width, geoplace_types::time::TICKS_PER_SLOT);
    power
}

/// Spot tariff and qualitative level of one DC during `slot`, after the
/// event timeline's price factor. A spike that lifts the effective price
/// to the site's peak tariff (or beyond) escalates the level to `High`,
/// so the green controller stops cheap-hour arbitrage for the duration;
/// discounts never demote the level — transients may only make a site
/// look *more* expensive, the conservative direction for battery policy.
pub(crate) fn effective_tariff(
    schedule: &PriceSchedule,
    slot: TimeSlot,
    factor: f64,
) -> (EurosPerKwh, PriceLevel) {
    let base = schedule.price_at(slot);
    if factor == 1.0 {
        return (base, schedule.level(slot));
    }
    let price = EurosPerKwh(base.0 * factor);
    let level = if price.0 >= schedule.peak().0 - 1e-12 {
        PriceLevel::High
    } else {
        schedule.level(slot)
    };
    (price, level)
}

/// Grid cost of an energy amount in joules at a kWh tariff, clamped at
/// zero draw: when PV plus battery over-cover a site the green
/// controller's ledger can report (numerically) negative grid energy,
/// and a negative energy bill must never credit the cost total — the
/// model has no feed-in remuneration.
pub(crate) fn cost_of_joules(price: EurosPerKwh, joules: f64) -> f64 {
    price.0 * (joules.max(0.0) / 3.6e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_of_joules_charges_positive_energy_only() {
        let tariff = EurosPerKwh(0.25);
        // 3.6e6 J = 1 kWh.
        assert!((cost_of_joules(tariff, 3.6e6) - 0.25).abs() < 1e-12);
        // Over-covered site (PV/battery surplus): no negative bill.
        assert_eq!(cost_of_joules(tariff, -3.6e6), 0.0);
        assert_eq!(cost_of_joules(tariff, -1e-9), 0.0);
        assert_eq!(cost_of_joules(tariff, 0.0), 0.0);
    }
}
