//! The engine event timeline: deterministic, slot-indexed perturbations
//! of the simulated world.
//!
//! The paper evaluates one stationary diurnal regime; the scenario
//! library stresses the policies with *transients* — maintenance windows
//! that derate a DC's usable capacity, tariff spikes, PV droughts. An
//! [`EventTimeline`] is the one form of those perturbations, from a
//! scenario preset to the engine's tick loop: a set of [`EngineEvent`]s
//! over half-open slot windows, kept in a canonical order so that
//!
//! * building the same event set in any insertion order yields the same
//!   timeline (and bit-identical per-slot factors — the fold order of
//!   overlapping factors is fixed), and
//! * resolution is a pure function of `(timeline, dc, slot)`:
//!   re-applying a timeline never compounds (idempotence), because
//!   events scale the *base* series, not the previously scaled one.
//!
//! The engine calls [`EventTimeline::resolve`] once per DC as it enters
//! a slot; ticks within the slot share the slot's [`SlotFactors`].

use geoplace_types::time::TimeSlot;
use geoplace_types::{Error, Result};
use serde::{Deserialize, Serialize};

/// What an event does to the world while its window is active.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// Multiplies the DC's usable server count by `factor` ∈ (0, 1] —
    /// a maintenance window or partial outage. Policies see the derated
    /// count and decisions are validated against it.
    CapacityDerate {
        /// Usable fraction of the servers (never below one server).
        factor: f64,
    },
    /// Multiplies the DC's grid tariff by `factor` > 0. A spike that
    /// lifts the effective price to (or past) the site's peak tariff
    /// also flips the qualitative price level to `High`, so the green
    /// controller stops cheap-hour arbitrage during the spike.
    PriceSpike {
        /// Tariff multiplier (> 1 spikes, < 1 discounts).
        factor: f64,
    },
    /// Multiplies the DC's PV output by `factor` ∈ [0, 1] — an overcast
    /// front or panel outage ("green drought"). The WCMA forecaster
    /// observes the derated harvest and adapts on its own.
    PvDerate {
        /// Remaining fraction of the PV output.
        factor: f64,
    },
    /// Whole-DC outage: while the window is active the DC's usable
    /// capacity collapses to the one-server rollback floor and the
    /// engine force-evacuates its fleet through the migration model,
    /// committing the evacuations even past the latency budget (they
    /// still crowd the plan's link volumes, so concurrent voluntary
    /// migrations feel the bandwidth pressure). Requires a concrete
    /// target DC, and the timeline must keep one DC up at every slot —
    /// "every DC is down" leaves nowhere to evacuate to.
    DcOutage,
    /// Degrades inter-DC links touching the target DC (or every link,
    /// when the target is `None`) to `factor` ∈ (0, 1] of their
    /// bandwidth: migration latencies inflate by `1/factor` against the
    /// budget and per-DC response latencies scale the same way.
    NetworkPartition {
        /// Residual link bandwidth fraction.
        factor: f64,
    },
    /// Correlated capacity failure: the origin DC derates to `factor`
    /// over the window, and every higher-indexed DC suffers the same
    /// derate shifted later by `lag_slots` per index step — a failure
    /// front propagating through the fleet. Requires a concrete origin.
    CascadeDerate {
        /// Usable fraction of the servers at each affected DC.
        factor: f64,
        /// Slots between successive DCs joining the cascade (≥ 1).
        lag_slots: u32,
    },
}

impl EventKind {
    /// Discriminant used in the canonical ordering.
    fn rank(&self) -> u8 {
        match self {
            EventKind::CapacityDerate { .. } => 0,
            EventKind::PriceSpike { .. } => 1,
            EventKind::PvDerate { .. } => 2,
            EventKind::DcOutage => 3,
            EventKind::NetworkPartition { .. } => 4,
            EventKind::CascadeDerate { .. } => 5,
        }
    }

    /// Which of a slot's factors the kind scales, by the rank of the
    /// kind that owns it: a cascade scales capacity, like a plain derate.
    fn scaled_rank(&self) -> u8 {
        match self {
            EventKind::CascadeDerate { .. } => 0,
            kind => kind.rank(),
        }
    }

    /// The raw factor, whatever the kind. An outage has no residual
    /// fraction — its factor is 0.
    pub fn factor(&self) -> f64 {
        match *self {
            EventKind::CapacityDerate { factor }
            | EventKind::PriceSpike { factor }
            | EventKind::PvDerate { factor }
            | EventKind::NetworkPartition { factor }
            | EventKind::CascadeDerate { factor, .. } => factor,
            EventKind::DcOutage => 0.0,
        }
    }

    /// Validates the factor range for this kind.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the factor is out of range.
    pub fn validate(&self) -> Result<()> {
        let factor = self.factor();
        if !factor.is_finite() {
            return Err(Error::invalid_config("event factor must be finite"));
        }
        match self {
            EventKind::CapacityDerate { .. } if !(factor > 0.0 && factor <= 1.0) => Err(
                Error::invalid_config("capacity derate factor must be in (0, 1]"),
            ),
            EventKind::PriceSpike { .. } if factor <= 0.0 => {
                Err(Error::invalid_config("price spike factor must be > 0"))
            }
            EventKind::PvDerate { .. } if !(0.0..=1.0).contains(&factor) => {
                Err(Error::invalid_config("pv derate factor must be in [0, 1]"))
            }
            EventKind::NetworkPartition { .. } if !(factor > 0.0 && factor <= 1.0) => Err(
                Error::invalid_config("network partition factor must be in (0, 1]"),
            ),
            EventKind::CascadeDerate { .. } if !(factor > 0.0 && factor <= 1.0) => Err(
                Error::invalid_config("cascade derate factor must be in (0, 1]"),
            ),
            EventKind::CascadeDerate { lag_slots, .. } if *lag_slots == 0 => Err(
                Error::invalid_config("cascade derate lag must be at least one slot"),
            ),
            _ => Ok(()),
        }
    }
}

/// One timeline entry: a kind, a half-open slot window and a target DC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineEvent {
    /// Target DC index; `None` applies the event to every DC.
    pub dc: Option<u16>,
    /// First slot the event is active.
    pub start_slot: u32,
    /// One past the last active slot.
    pub end_slot: u32,
    /// The perturbation.
    pub kind: EventKind,
}

impl EngineEvent {
    /// Whether the event targets DC `dc`.
    pub fn targets(&self, dc: usize) -> bool {
        match self.dc {
            None => true,
            Some(target) => usize::from(target) == dc,
        }
    }

    /// The event's half-open slot window at DC `dc`, or `None` when the
    /// event never reaches that DC. A cascade rooted at `origin` reaches
    /// DC `d ≥ origin` with its window shifted by `(d - origin) ·
    /// lag_slots` (saturating, so a window shifted off the end of `u32`
    /// collapses to empty); an origin-less cascade, which validation
    /// refuses, reaches no DC.
    fn window_at(&self, dc: usize) -> Option<(u32, u32)> {
        match self.kind {
            EventKind::CascadeDerate { lag_slots, .. } => {
                let steps = dc.checked_sub(usize::from(self.dc?))?;
                let shift = u32::try_from(steps)
                    .unwrap_or(u32::MAX)
                    .saturating_mul(lag_slots);
                Some((
                    self.start_slot.saturating_add(shift),
                    self.end_slot.saturating_add(shift),
                ))
            }
            _ => self.targets(dc).then_some((self.start_slot, self.end_slot)),
        }
    }

    /// Canonical ordering key: slot window, then target, then kind, then
    /// factor bits, then any kind-specific auxiliary parameter — a total
    /// order, so sorting is deterministic. The aux component matters:
    /// `sort_by_key` is stable, so without it two cascades differing
    /// only in lag would keep their insertion order.
    fn key(&self) -> (u32, u32, u32, u8, u64, u64) {
        let dc_rank = match self.dc {
            None => 0,
            Some(d) => u32::from(d) + 1,
        };
        let aux = match self.kind {
            EventKind::CascadeDerate { lag_slots, .. } => u64::from(lag_slots),
            _ => 0,
        };
        (
            self.start_slot,
            self.end_slot,
            dc_rank,
            self.kind.rank(),
            self.kind.factor().to_bits(),
            aux,
        )
    }

    /// Validates window, target and factor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] describing the violation.
    pub fn validate(&self, n_dcs: usize) -> Result<()> {
        if self.start_slot >= self.end_slot {
            return Err(Error::invalid_config(format!(
                "event window [{}, {}) is empty",
                self.start_slot, self.end_slot
            )));
        }
        if let Some(dc) = self.dc {
            if usize::from(dc) >= n_dcs {
                return Err(Error::invalid_config(format!(
                    "event targets DC {dc} but the scenario has {n_dcs} DCs"
                )));
            }
        } else if matches!(self.kind, EventKind::DcOutage) {
            return Err(Error::invalid_config(
                "a DC outage needs a concrete target (a fleet-wide outage \
                 leaves nowhere to evacuate to)",
            ));
        } else if matches!(self.kind, EventKind::CascadeDerate { .. }) {
            return Err(Error::invalid_config(
                "a cascade derate needs a concrete origin DC",
            ));
        }
        self.kind.validate()
    }
}

/// The timeline's effect on one DC during one slot, as
/// [`EventTimeline::resolve`] returns it. With no event covering the
/// slot every factor is 1.0 and the DC is up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotFactors {
    /// Usable server fraction: plain derates targeting the DC and every
    /// cascade front that reaches it.
    pub capacity: f64,
    /// Tariff multiplier.
    pub price: f64,
    /// PV output multiplier.
    pub pv: f64,
    /// Residual bandwidth fraction of the inter-DC links touching the
    /// DC under network partitions.
    pub link: f64,
    /// Whether an outage window covers the slot.
    pub outaged: bool,
}

/// A canonically ordered set of engine events.
///
/// # Examples
///
/// ```
/// use geoplace_dcsim::events::{EngineEvent, EventKind, EventTimeline};
/// use geoplace_types::time::TimeSlot;
///
/// let mut timeline = EventTimeline::default();
/// timeline.push(EngineEvent {
///     dc: Some(0),
///     start_slot: 6,
///     end_slot: 12,
///     kind: EventKind::PriceSpike { factor: 4.0 },
/// });
/// assert_eq!(timeline.resolve(0, TimeSlot(7)).price, 4.0);
/// assert_eq!(timeline.resolve(0, TimeSlot(12)).price, 1.0);
/// assert_eq!(timeline.resolve(1, TimeSlot(7)).price, 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EventTimeline {
    events: Vec<EngineEvent>,
}

impl EventTimeline {
    /// Builds a timeline from events (any order — the canonical order is
    /// established here, and `new(t.events().to_vec())` round-trips).
    pub fn new(events: Vec<EngineEvent>) -> Self {
        let mut timeline = EventTimeline { events };
        timeline.normalize();
        timeline
    }

    /// Adds one event, keeping the canonical order.
    pub fn push(&mut self, event: EngineEvent) {
        self.events.push(event);
        self.normalize();
    }

    /// Re-establishes the canonical order; idempotent by construction.
    fn normalize(&mut self) {
        self.events.sort_by_key(EngineEvent::key);
    }

    /// Whether no events exist.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in canonical (slot) order.
    pub fn events(&self) -> &[EngineEvent] {
        &self.events
    }

    /// Validates every event against the scenario's DC count, and that
    /// some DC stays up at every slot.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for the first invalid event, or
    /// naming the first slot at which every DC is outaged.
    pub fn validate(&self, n_dcs: usize) -> Result<()> {
        for event in &self.events {
            event.validate(n_dcs)?;
        }
        // The set of downed DCs grows only where an outage starts, and
        // the events are in start order, so this finds the first slot
        // with no DC left up, if there is one.
        for event in &self.events {
            if event.kind != EventKind::DcOutage {
                continue;
            }
            let slot = TimeSlot(event.start_slot);
            if (0..n_dcs).all(|dc| self.resolve(dc, slot).outaged) {
                return Err(Error::invalid_config(format!(
                    "every DC is outaged at {slot}: a fleet-wide outage \
                     leaves nowhere to evacuate to"
                )));
            }
        }
        Ok(())
    }

    /// The timeline's factors for DC `dc` at `slot`.
    ///
    /// Per factor, the covering events multiply in the `(start, end,
    /// factor bits)` order of their windows at `dc` — a cascade's window
    /// shifted to when its front reaches the DC. The order is a function
    /// of the event set alone, so the floating-point product is
    /// bit-identical whatever order the events were inserted in.
    /// Resolution never panics on a timeline that fails
    /// [`validate`](Self::validate): an empty window covers no slot, and
    /// out-of-range factors resolve as given.
    pub fn resolve(&self, dc: usize, slot: TimeSlot) -> SlotFactors {
        // (scaled factor, window start, window end, factor bits) of
        // every event covering the DC at `slot`.
        let mut covering: Vec<(u8, u32, u32, u64)> = self
            .events
            .iter()
            .filter_map(|event| {
                let (start, end) = event.window_at(dc)?;
                (start..end).contains(&slot.0).then(|| {
                    let factor = event.kind.factor().to_bits();
                    (event.kind.scaled_rank(), start, end, factor)
                })
            })
            .collect();
        covering.sort_unstable();
        // One product per scaled factor, indexed by the owning kind's
        // rank; the sort above fixes each product's fold order.
        let mut product = [1.0f64; 5];
        for &(rank, _, _, bits) in &covering {
            product[usize::from(rank)] *= f64::from_bits(bits);
        }
        let [capacity, price, pv, outage, link] = product;
        SlotFactors {
            capacity,
            price,
            pv,
            link,
            // An outage's factor is 0, so any covering outage zeroes it.
            outaged: outage == 0.0,
        }
    }
}

/// Usable servers after a capacity derate: the floor of the scaled
/// count, never below one server (a DC with servers cannot derate to
/// zero — the engine needs somewhere to put rollback placements).
pub fn effective_servers(servers: u32, factor: f64) -> u32 {
    if factor >= 1.0 {
        return servers;
    }
    ((f64::from(servers) * factor).floor() as u32).clamp(1, servers)
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNPERTURBED: SlotFactors = SlotFactors {
        capacity: 1.0,
        price: 1.0,
        pv: 1.0,
        link: 1.0,
        outaged: false,
    };

    fn derate(dc: Option<u16>, start: u32, end: u32, factor: f64) -> EngineEvent {
        EngineEvent {
            dc,
            start_slot: start,
            end_slot: end,
            kind: EventKind::CapacityDerate { factor },
        }
    }

    fn spike(dc: Option<u16>, start: u32, end: u32, factor: f64) -> EngineEvent {
        EngineEvent {
            dc,
            start_slot: start,
            end_slot: end,
            kind: EventKind::PriceSpike { factor },
        }
    }

    /// The factors' exact bit patterns, for bit-identity assertions.
    fn bits(f: SlotFactors) -> [u64; 5] {
        [
            f.capacity.to_bits(),
            f.price.to_bits(),
            f.pv.to_bits(),
            f.link.to_bits(),
            u64::from(f.outaged),
        ]
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let events = vec![
            derate(Some(1), 4, 8, 0.5),
            derate(None, 0, 24, 0.9),
            spike(Some(0), 2, 6, 3.0),
            spike(None, 0, 8, 1.5),
            spike(Some(0), 4, 12, 0.25),
        ];
        let forward = EventTimeline::new(events.clone());
        let mut reversed = EventTimeline::default();
        for event in events.into_iter().rev() {
            reversed.push(event);
        }
        assert_eq!(forward, reversed);
        for dc in 0..3usize {
            for slot in 0..30u32 {
                let slot = TimeSlot(slot);
                assert_eq!(
                    bits(forward.resolve(dc, slot)),
                    bits(reversed.resolve(dc, slot)),
                    "dc {dc}, {slot}"
                );
            }
        }
    }

    #[test]
    fn an_empty_timeline_leaves_every_slot_unperturbed() {
        let timeline = EventTimeline::default();
        assert!(timeline.validate(3).is_ok());
        for dc in 0..3usize {
            for slot in 0..200u32 {
                assert_eq!(timeline.resolve(dc, TimeSlot(slot)), UNPERTURBED);
            }
        }
    }

    #[test]
    fn windows_are_half_open_and_overlaps_multiply() {
        let timeline = EventTimeline::new(vec![
            derate(Some(0), 10, 20, 0.5),
            spike(Some(0), 0, 10, 2.0),
            spike(Some(0), 5, 15, 3.0),
        ]);
        let capacity = |slot| timeline.resolve(0, TimeSlot(slot)).capacity;
        assert_eq!(capacity(9), 1.0);
        assert_eq!(capacity(10), 0.5);
        assert_eq!(capacity(19), 0.5);
        assert_eq!(capacity(20), 1.0);
        let price = |slot| timeline.resolve(0, TimeSlot(slot)).price;
        assert_eq!(price(2), 2.0);
        assert_eq!(price(7), 6.0);
        assert_eq!(price(12), 3.0);
        assert_eq!(price(15), 1.0);
    }

    #[test]
    fn same_window_factors_fold_in_window_then_factor_order() {
        // The timeline's canonical order puts fleet-wide events before
        // targeted ones, which would fold DC 0's spikes as
        // 0.1 · 0.3 · 0.1 = 0.003. Resolution folds by (window, factor
        // bits) instead — 0.1 · 0.1 · 0.3 — and every recorded golden
        // digest carries that product.
        let timeline = EventTimeline::new(vec![
            spike(None, 2, 6, 0.1),
            spike(Some(0), 2, 6, 0.1),
            spike(None, 2, 6, 0.3),
        ]);
        let slot = TimeSlot(3);
        assert_eq!(
            timeline.resolve(0, slot).price.to_bits(),
            0.0030000000000000005_f64.to_bits()
        );
        assert_eq!(
            timeline.resolve(1, slot).price.to_bits(),
            (0.1_f64 * 0.3).to_bits()
        );
    }

    #[test]
    fn normalization_is_idempotent() {
        let timeline = EventTimeline::new(vec![
            derate(Some(2), 10, 20, 0.25),
            derate(Some(0), 0, 5, 0.75),
        ]);
        let renormalized = EventTimeline::new(timeline.events().to_vec());
        assert_eq!(timeline, renormalized);
    }

    #[test]
    fn events_target_the_right_dc() {
        let timeline = EventTimeline::new(vec![derate(Some(1), 0, 10, 0.5)]);
        assert_eq!(timeline.resolve(0, TimeSlot(3)), UNPERTURBED);
        assert_eq!(timeline.resolve(1, TimeSlot(3)).capacity, 0.5);
        let fleet_wide = EventTimeline::new(vec![derate(None, 0, 10, 0.5)]);
        for dc in 0..3usize {
            assert_eq!(fleet_wide.resolve(dc, TimeSlot(3)).capacity, 0.5, "dc {dc}");
        }
    }

    #[test]
    fn kinds_resolve_into_disjoint_modulators() {
        let timeline = EventTimeline::new(vec![
            EngineEvent {
                dc: None,
                start_slot: 0,
                end_slot: 4,
                kind: EventKind::PvDerate { factor: 0.3 },
            },
            spike(None, 0, 4, 2.0),
        ]);
        assert_eq!(
            timeline.resolve(0, TimeSlot(1)),
            SlotFactors {
                pv: 0.3,
                price: 2.0,
                ..UNPERTURBED
            }
        );
    }

    #[test]
    fn validation_enforces_ranges() {
        let n = 3;
        assert!(derate(None, 5, 5, 0.5).validate(n).is_err());
        assert!(derate(None, 0, 5, 0.0).validate(n).is_err());
        assert!(derate(None, 0, 5, 1.5).validate(n).is_err());
        assert!(derate(Some(3), 0, 5, 0.5).validate(n).is_err());
        assert!(derate(Some(2), 0, 5, 0.5).validate(n).is_ok());
        assert!(spike(None, 0, 2, 0.0).validate(n).is_err());
        let dark = EngineEvent {
            dc: None,
            start_slot: 0,
            end_slot: 2,
            kind: EventKind::PvDerate { factor: 0.0 },
        };
        assert!(dark.validate(n).is_ok(), "a total blackout is a scenario");
    }

    #[test]
    fn resolving_an_unvalidated_timeline_never_panics() {
        // Validation lives in `validate()`; resolution must tolerate a
        // timeline that has not passed it. An empty window is inert.
        let timeline = EventTimeline::new(vec![derate(Some(0), 5, 5, 0.5)]);
        assert!(timeline.validate(3).is_err());
        for slot in 0..10u32 {
            assert_eq!(timeline.resolve(0, TimeSlot(slot)), UNPERTURBED);
        }
    }

    fn outage(dc: u16, start: u32, end: u32) -> EngineEvent {
        EngineEvent {
            dc: Some(dc),
            start_slot: start,
            end_slot: end,
            kind: EventKind::DcOutage,
        }
    }

    #[test]
    fn failure_kinds_validate_their_ranges() {
        let n = 3;
        assert!(outage(1, 2, 6).validate(n).is_ok());
        let fleet_wide_outage = EngineEvent {
            dc: None,
            ..outage(0, 2, 6)
        };
        assert!(fleet_wide_outage.validate(n).is_err(), "needs a target");
        let partition = |dc, factor| EngineEvent {
            dc,
            start_slot: 0,
            end_slot: 4,
            kind: EventKind::NetworkPartition { factor },
        };
        assert!(partition(None, 0.5).validate(n).is_ok());
        assert!(partition(Some(2), 1.0).validate(n).is_ok());
        assert!(partition(None, 0.0).validate(n).is_err());
        assert!(partition(None, 1.5).validate(n).is_err());
        let cascade = |dc, factor, lag_slots| EngineEvent {
            dc,
            start_slot: 1,
            end_slot: 3,
            kind: EventKind::CascadeDerate { factor, lag_slots },
        };
        assert!(cascade(Some(0), 0.5, 2).validate(n).is_ok());
        assert!(
            cascade(None, 0.5, 2).validate(n).is_err(),
            "needs an origin"
        );
        assert!(cascade(Some(0), 0.0, 2).validate(n).is_err());
        assert!(cascade(Some(0), 0.5, 0).validate(n).is_err(), "lag >= 1");
    }

    #[test]
    fn a_timeline_that_downs_every_dc_at_once_is_refused() {
        let overlapping =
            EventTimeline::new(vec![outage(0, 2, 4), outage(1, 2, 4), outage(2, 2, 4)]);
        let err = overlapping.validate(3).unwrap_err().to_string();
        assert!(err.contains("slot 2 "), "{err}");
        // The last DC to go down names the slot, not the first.
        let late = EventTimeline::new(vec![outage(0, 1, 6), outage(1, 3, 6), outage(2, 4, 9)]);
        let err = late.validate(3).unwrap_err().to_string();
        assert!(err.contains("slot 4 "), "{err}");
        // One DC is up at every slot: back to back, or two at a time.
        let staggered = EventTimeline::new(vec![outage(0, 2, 4), outage(1, 4, 6), outage(2, 6, 8)]);
        assert!(staggered.validate(3).is_ok());
        let pairs = EventTimeline::new(vec![outage(0, 2, 5), outage(1, 3, 7), outage(2, 5, 8)]);
        assert!(pairs.validate(3).is_ok());
    }

    #[test]
    fn outage_and_partition_resolve_into_their_own_modulators() {
        let timeline = EventTimeline::new(vec![
            outage(1, 4, 8),
            EngineEvent {
                dc: None,
                start_slot: 2,
                end_slot: 6,
                kind: EventKind::NetworkPartition { factor: 0.25 },
            },
        ]);
        for slot in 0..10u32 {
            assert!(!timeline.resolve(0, TimeSlot(slot)).outaged);
        }
        assert!(timeline.resolve(1, TimeSlot(5)).outaged);
        assert!(!timeline.resolve(1, TimeSlot(8)).outaged);
        for dc in 0..3usize {
            assert_eq!(timeline.resolve(dc, TimeSlot(3)).link, 0.25);
            assert_eq!(timeline.resolve(dc, TimeSlot(6)).link, 1.0);
        }
        // Neither failure kind bleeds into the capacity factor.
        for slot in 0..10u32 {
            assert_eq!(timeline.resolve(1, TimeSlot(slot)).capacity, 1.0);
        }
    }

    #[test]
    fn cascades_propagate_with_lag_to_higher_indexed_dcs() {
        let timeline = EventTimeline::new(vec![EngineEvent {
            dc: Some(1),
            start_slot: 2,
            end_slot: 4,
            kind: EventKind::CascadeDerate {
                factor: 0.5,
                lag_slots: 3,
            },
        }]);
        let capacity = |dc, slot| timeline.resolve(dc, TimeSlot(slot)).capacity;
        // DC 0 is below the origin: untouched.
        for slot in 0..10u32 {
            assert_eq!(capacity(0, slot), 1.0);
        }
        // Origin derates over [2, 4).
        assert_eq!(capacity(1, 2), 0.5);
        assert_eq!(capacity(1, 4), 1.0);
        // DC 2 joins 3 slots later, over [5, 7).
        assert_eq!(capacity(2, 2), 1.0);
        assert_eq!(capacity(2, 5), 0.5);
        assert_eq!(capacity(2, 7), 1.0);
        // A window shifted past u32::MAX collapses to empty, not a panic.
        let horizon = EventTimeline::new(vec![EngineEvent {
            dc: Some(0),
            start_slot: u32::MAX - 1,
            end_slot: u32::MAX,
            kind: EventKind::CascadeDerate {
                factor: 0.5,
                lag_slots: u32::MAX,
            },
        }]);
        for slot in [0, u32::MAX - 1, u32::MAX] {
            assert_eq!(horizon.resolve(5, TimeSlot(slot)), UNPERTURBED);
        }
    }

    #[test]
    fn cascades_differing_only_in_lag_order_deterministically() {
        let a = EngineEvent {
            dc: Some(0),
            start_slot: 1,
            end_slot: 5,
            kind: EventKind::CascadeDerate {
                factor: 0.5,
                lag_slots: 1,
            },
        };
        let b = EngineEvent {
            dc: Some(0),
            start_slot: 1,
            end_slot: 5,
            kind: EventKind::CascadeDerate {
                factor: 0.5,
                lag_slots: 4,
            },
        };
        assert_eq!(
            EventTimeline::new(vec![a, b]),
            EventTimeline::new(vec![b, a])
        );
    }

    #[test]
    fn effective_servers_floors_and_clamps() {
        assert_eq!(effective_servers(100, 1.0), 100);
        assert_eq!(effective_servers(100, 0.5), 50);
        assert_eq!(effective_servers(100, 0.999), 99);
        assert_eq!(effective_servers(3, 0.01), 1, "never derate to zero");
        assert_eq!(effective_servers(100, 2.0), 100, "no capacity boosts");
    }
}
