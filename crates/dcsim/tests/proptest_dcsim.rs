//! Property-based tests of the simulator substrate.

use geoplace_dcsim::decision::{PlacementDecision, ServerAssignment};
use geoplace_dcsim::metrics::{percentile, Histogram};
use geoplace_dcsim::power::{FreqLevel, ServerPowerModel};
use geoplace_dcsim::pue::{PueModel, SiteClimate};
use geoplace_types::time::TimeSlot;
use geoplace_types::{DcId, VmId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Power is monotone in load at every DVFS level and bounded by the
    /// operating point's envelope.
    #[test]
    fn power_monotone_and_bounded(level in 0usize..2, a in 0.0f64..10.0, b in 0.0f64..10.0) {
        let model = ServerPowerModel::xeon_e5410();
        let level = FreqLevel(level);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let p_lo = model.power(level, lo);
        let p_hi = model.power(level, hi);
        prop_assert!(p_lo.0 <= p_hi.0 + 1e-9);
        let point = model.levels()[level.0];
        prop_assert!(p_lo.0 >= point.idle.0 - 1e-9);
        prop_assert!(p_hi.0 <= point.full.0 + 1e-9);
    }

    /// DVFS selection always returns a level whose capacity covers the
    /// load when any level can.
    #[test]
    fn dvfs_selection_adequate(load in 0.0f64..8.0) {
        let model = ServerPowerModel::xeon_e5410();
        let level = model.dvfs_select(load);
        prop_assert!(model.capacity_cores(level) + 1e-9 >= load.min(8.0));
    }

    /// The PUE stays within its curve's envelope for any climate and slot.
    #[test]
    fn pue_within_envelope(mean in -10.0f64..35.0, amplitude in 0.0f64..15.0, slot in 0u32..1000, tz in -12i32..12) {
        let climate = SiteClimate { mean_c: mean, amplitude_c: amplitude, timezone_offset_hours: tz };
        let value = PueModel::pue(&climate, TimeSlot(slot));
        prop_assert!(value >= PueModel::BASE - 1e-9);
        prop_assert!(value <= PueModel::BASE + PueModel::RAMP + 1e-9);
    }

    /// Decision validation accepts exactly the structurally sound
    /// decisions built by construction.
    #[test]
    fn constructed_decisions_validate(
        per_dc in proptest::collection::vec(0u32..6, 1..4),
        vms_per_server in 1usize..5,
    ) {
        let n_dcs = per_dc.len();
        let mut decision = PlacementDecision::new(n_dcs);
        let mut active = Vec::new();
        let mut next_vm = 0u32;
        for (dc, &servers) in per_dc.iter().enumerate() {
            for s in 0..servers {
                let vms: Vec<VmId> = (0..vms_per_server)
                    .map(|_| {
                        let vm = VmId(next_vm);
                        next_vm += 1;
                        active.push(vm);
                        vm
                    })
                    .collect();
                decision.push(
                    DcId(dc as u16),
                    ServerAssignment { server: s, freq: FreqLevel(0), vms },
                );
            }
        }
        let counts: Vec<u32> = per_dc.iter().map(|&s| s.max(1)).collect();
        prop_assert!(decision.validate(&active, &counts, &vec![2; counts.len()]).is_ok());
        prop_assert_eq!(decision.vm_count(), active.len());
    }

    /// Histogram PDFs always sum to 1 for non-empty samples and bins never
    /// lose a sample.
    #[test]
    fn histogram_conserves_mass(
        samples in proptest::collection::vec(0.0f64..10.0, 1..200),
        bins in 1usize..32,
        max_value in 0.1f64..10.0,
    ) {
        let histogram = Histogram::from_samples(&samples, bins, max_value);
        let total: u64 = histogram.counts().iter().sum();
        prop_assert_eq!(total as usize, samples.len());
        let pdf_sum: f64 = histogram.pdf().iter().sum();
        prop_assert!((pdf_sum - 1.0).abs() < 1e-9);
    }

    /// Percentiles are monotone in q and bracketed by min/max.
    #[test]
    fn percentile_monotone(
        samples in proptest::collection::vec(-100.0f64..100.0, 1..100),
        q1 in 0.0f64..1.0,
        dq in 0.0f64..1.0,
    ) {
        let q2 = (q1 + dq).min(1.0);
        let p1 = percentile(&samples, q1);
        let p2 = percentile(&samples, q2);
        prop_assert!(p1 <= p2 + 1e-9);
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(p1 >= min - 1e-9 && p2 <= max + 1e-9);
    }

    /// Event timelines apply idempotently and in slot order regardless
    /// of insertion order: any permutation of the same event set builds
    /// the same canonical timeline, resolves to bit-identical per-slot
    /// factors for every DC and kind, and re-normalizing a canonical
    /// timeline is a no-op. Validation refuses exactly the timelines
    /// that down every DC at some slot.
    #[test]
    fn event_timeline_is_order_independent_and_idempotent(
        seed in 0u64..500,
        n_events in 1usize..10,
    ) {
        use geoplace_dcsim::events::{EngineEvent, EventKind, EventTimeline};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for _ in 0..n_events {
            let start = rng.gen_range(0u32..24);
            let end = start + rng.gen_range(1u32..12);
            let concrete = Some(rng.gen_range(0u16..3));
            let mut dc = match rng.gen_range(0u8..4) {
                0 => None,
                d => Some(u16::from(d) - 1),
            };
            let kind = match rng.gen_range(0u8..6) {
                0 => EventKind::CapacityDerate { factor: rng.gen_range(0.05f64..1.0) },
                1 => EventKind::PriceSpike { factor: rng.gen_range(0.2f64..6.0) },
                2 => EventKind::PvDerate { factor: rng.gen_range(0.0f64..1.0) },
                3 => {
                    // Outages and cascades always name a concrete DC.
                    dc = concrete;
                    EventKind::DcOutage
                }
                4 => EventKind::NetworkPartition { factor: rng.gen_range(0.05f64..1.0) },
                _ => {
                    dc = concrete;
                    EventKind::CascadeDerate {
                        factor: rng.gen_range(0.05f64..1.0),
                        lag_slots: rng.gen_range(1u32..4),
                    }
                }
            };
            events.push(EngineEvent { dc, start_slot: start, end_slot: end, kind });
        }
        // Exact duplicates and same-window overlaps must normalize
        // deterministically too: replay the first event verbatim and
        // shadow it with an outage over the identical window.
        let first = events[0];
        events.push(first);
        events.push(EngineEvent {
            dc: Some(0),
            start_slot: first.start_slot,
            end_slot: first.end_slot,
            kind: EventKind::DcOutage,
        });
        // Half the cases also down DCs 1 and 2, over windows that may or
        // may not overlap, so both sides of the refusal below are hit.
        if rng.gen_range(0u8..2) == 0 {
            for dc in 1..3u16 {
                let start = rng.gen_range(0u32..24);
                events.push(EngineEvent {
                    dc: Some(dc),
                    start_slot: start,
                    end_slot: start + rng.gen_range(1u32..12),
                    kind: EventKind::DcOutage,
                });
            }
        }
        let outaged = |dc: u16, slot: u32| {
            events.iter().any(|e| {
                e.kind == EventKind::DcOutage
                    && e.dc == Some(dc)
                    && (e.start_slot..e.end_slot).contains(&slot)
            })
        };
        let all_down = (0..40u32).any(|slot| (0..3u16).all(|dc| outaged(dc, slot)));
        prop_assert_eq!(
            EventTimeline::new(events.clone()).validate(3).is_err(),
            all_down
        );

        // Three insertion orders: as generated, reversed, and rotated.
        let forward = EventTimeline::new(events.clone());
        let mut reversed = EventTimeline::default();
        for e in events.iter().rev() {
            reversed.push(*e);
        }
        let mut rotated = events.clone();
        rotated.rotate_left(events.len() / 2);
        let rotated = EventTimeline::new(rotated);

        prop_assert_eq!(&forward, &reversed);
        prop_assert_eq!(&forward, &rotated);

        // Idempotence: normalizing the canonical form changes nothing.
        let renormalized = EventTimeline::new(forward.events().to_vec());
        prop_assert_eq!(&forward, &renormalized);

        // Resolution is bit-identical across insertion orders, and the
        // canonical event order is sorted by slot window.
        for dc in 0..3usize {
            for slot in 0..40u32 {
                let slot = TimeSlot(slot);
                let (a, b) = (forward.resolve(dc, slot), reversed.resolve(dc, slot));
                prop_assert_eq!(a.capacity.to_bits(), b.capacity.to_bits());
                prop_assert_eq!(a.price.to_bits(), b.price.to_bits());
                prop_assert_eq!(a.pv.to_bits(), b.pv.to_bits());
                prop_assert_eq!(a.link.to_bits(), b.link.to_bits());
                prop_assert_eq!(a.outaged, b.outaged);
            }
        }
        let starts: Vec<(u32, u32)> = forward
            .events()
            .iter()
            .map(|e| (e.start_slot, e.end_slot))
            .collect();
        prop_assert!(starts.windows(2).all(|w| w[0] <= w[1]), "slot order: {starts:?}");
    }
}
