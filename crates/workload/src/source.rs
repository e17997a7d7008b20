//! Producers of per-boundary fleet changes.
//!
//! The engine's world-advance phase does not care *where* churn comes
//! from: it asks a [`DeltaSource`] to move the fleet one slot boundary
//! forward, reads the moved fleet, and hands the resulting
//! [`FleetDelta`] back to its driver to report the churn. The synthetic
//! arrival process is one producer
//! ([`SyntheticSource`]); an external driver feeding validated
//! arrival/departure/traffic events (an orchestrator, a trace replayer,
//! the `geoplace-serve` JSON session) is another
//! ([`ExternalDeltaSource`]).

use crate::fleet::{ExternalArrival, ExternalPair, ExternalSlotEvents, FleetDelta, VmFleet};
use crate::trace::TraceKind;
use crate::tracefile::TraceRow;
use geoplace_types::hash::Fnv64;
use geoplace_types::time::TimeSlot;
use geoplace_types::{Result, VmId};
use std::collections::BTreeMap;

/// A producer of slot-boundary fleet changes.
pub trait DeltaSource {
    /// Advances `fleet` to `slot` (exactly one boundary for external
    /// producers; the synthetic process accepts multi-slot jumps) and
    /// returns what changed.
    ///
    /// # Errors
    ///
    /// External producers return [`geoplace_types::Error::InvalidConfig`]
    /// when the queued batch fails validation; the fleet is left at its
    /// previous slot, untouched.
    fn advance(&mut self, fleet: &mut VmFleet, slot: TimeSlot) -> Result<FleetDelta>;
}

/// The synthetic producer: Poisson group arrivals, exponential lifetimes
/// and drifting pair rates, exactly as [`VmFleet::advance_to`] has always
/// generated them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyntheticSource;

impl DeltaSource for SyntheticSource {
    fn advance(&mut self, fleet: &mut VmFleet, slot: TimeSlot) -> Result<FleetDelta> {
        Ok(fleet.advance_to(slot))
    }
}

/// An external producer: events are queued between boundaries and applied
/// as one validated batch by [`VmFleet::advance_external`] at the next
/// advance. A failed advance consumes (and drops) the queued batch while
/// leaving the fleet untouched, so the driver can re-queue a corrected
/// batch and retry.
#[derive(Debug, Clone, Default)]
pub struct ExternalDeltaSource {
    pending: ExternalSlotEvents,
}

impl ExternalDeltaSource {
    /// Creates a source with an empty event queue.
    pub fn new() -> Self {
        ExternalDeltaSource::default()
    }

    /// Queues a VM arrival for the next boundary.
    pub fn queue_arrival(&mut self, arrival: ExternalArrival) {
        self.pending.arrivals.push(arrival);
    }

    /// Queues an explicit early departure for the next boundary.
    pub fn queue_departure(&mut self, vm: VmId) {
        self.pending.departures.push(vm);
    }

    /// Queues a traffic pair (re)wiring for the next boundary.
    pub fn queue_traffic(&mut self, pair: ExternalPair) {
        self.pending.traffic.push(pair);
    }

    /// The events currently queued for the next boundary.
    pub fn pending(&self) -> &ExternalSlotEvents {
        &self.pending
    }
}

impl DeltaSource for ExternalDeltaSource {
    fn advance(&mut self, fleet: &mut VmFleet, slot: TimeSlot) -> Result<FleetDelta> {
        let events = std::mem::take(&mut self.pending);
        fleet.advance_external(slot, &events)
    }
}

impl geoplace_types::snap::Snapshot for ExternalDeltaSource {
    /// Saves the queued-but-not-yet-applied event batch, so a restored
    /// session sees exactly the events the saved one had pending.
    fn save_state(&self, w: &mut geoplace_types::snap::SnapWriter) {
        w.write_u32(self.pending.arrivals.len() as u32);
        for arrival in &self.pending.arrivals {
            w.write_u32(arrival.id.0);
            w.write_f64(arrival.memory_gb);
            w.write_u32(arrival.lifetime_slots);
            w.write_u8(arrival.kind.tag());
            w.write_u64(arrival.trace_seed);
        }
        w.write_u32(self.pending.departures.len() as u32);
        for vm in &self.pending.departures {
            w.write_u32(vm.0);
        }
        w.write_u32(self.pending.traffic.len() as u32);
        for pair in &self.pending.traffic {
            w.write_u32(pair.a.0);
            w.write_u32(pair.b.0);
            w.write_f64(pair.a_to_b_mb);
            w.write_f64(pair.b_to_a_mb);
        }
    }

    fn restore_state(&mut self, r: &mut geoplace_types::snap::SnapReader<'_>) -> Result<()> {
        let mut pending = ExternalSlotEvents::default();
        for _ in 0..r.read_u32()? {
            let at = r.offset();
            let id = VmId(r.read_u32()?);
            let memory_gb = r.read_f64()?;
            let lifetime_slots = r.read_u32()?;
            let tag = r.read_u8()?;
            let kind = TraceKind::from_tag(tag).ok_or_else(|| {
                geoplace_types::Error::snapshot(
                    "source",
                    at,
                    format!("pending arrival {id} has unknown trace kind tag {tag}"),
                )
            })?;
            pending.arrivals.push(ExternalArrival {
                id,
                memory_gb,
                lifetime_slots,
                kind,
                trace_seed: r.read_u64()?,
            });
        }
        for _ in 0..r.read_u32()? {
            pending.departures.push(VmId(r.read_u32()?));
        }
        for _ in 0..r.read_u32()? {
            pending.traffic.push(ExternalPair {
                a: VmId(r.read_u32()?),
                b: VmId(r.read_u32()?),
                a_to_b_mb: r.read_f64()?,
                b_to_a_mb: r.read_f64()?,
            });
        }
        self.pending = pending;
        Ok(())
    }
}

/// A trace replayer: feeds the rows of a parsed trace file (see
/// [`crate::tracefile`]) into the fleet slot by slot, exactly as an
/// external orchestrator would. Trace-local VM ids are mapped to fresh
/// engine ids at arrival time; departures happen by the rows' natural
/// lifetime expiry; traffic wiring lands at the peer's arrival boundary.
///
/// A failed advance (which a parse-time-validated trace should never
/// produce) leaves the fleet, the cursor and the id map untouched, so
/// the same boundary can be retried.
#[derive(Debug, Clone, Default)]
pub struct TraceSource {
    /// Parse-validated rows in non-decreasing slot order.
    rows: Vec<TraceRow>,
    /// Index of the first row not yet replayed.
    cursor: usize,
    /// Trace-local id → engine id of every replayed row.
    ids: BTreeMap<u32, VmId>,
}

impl TraceSource {
    /// Creates a replayer over parse-validated rows (the output of
    /// [`crate::tracefile::parse_trace`], which guarantees slot order,
    /// unique ids and alive peers).
    pub fn new(rows: Vec<TraceRow>) -> Self {
        TraceSource {
            rows,
            cursor: 0,
            ids: BTreeMap::new(),
        }
    }

    /// Rows not yet replayed (a horizon shorter than the trace simply
    /// leaves a tail unplayed).
    pub fn remaining(&self) -> usize {
        self.rows.len() - self.cursor
    }

    /// The engine id a trace-local VM id was mapped to at arrival.
    pub fn engine_id(&self, trace_vm: u32) -> Option<VmId> {
        self.ids.get(&trace_vm).copied()
    }

    /// FNV-1a fingerprint of the parsed rows: a checkpoint records it,
    /// so its cursor and id map restore only into a replay of the same
    /// trace.
    fn fingerprint(&self) -> u64 {
        let mut hash = Fnv64::new();
        for row in &self.rows {
            hash.write_u32(row.slot);
            hash.write_u32(row.vm);
            hash.write_f64(row.memory_gb);
            hash.write_u32(row.lifetime_slots);
            hash.write_bytes(&[row.kind.tag()]);
            hash.write_u64(row.trace_seed);
            hash.write_u64(row.peer.map_or(u64::MAX, u64::from));
            hash.write_f64(row.mb_to_peer);
            hash.write_f64(row.mb_from_peer);
        }
        hash.finish()
    }
}

impl geoplace_types::snap::Snapshot for TraceSource {
    /// Saves the rows' fingerprint, the replay cursor and the trace-id →
    /// engine-id map; the rows themselves come back from re-parsing the
    /// trace file on restore.
    fn save_state(&self, w: &mut geoplace_types::snap::SnapWriter) {
        w.write_u64(self.fingerprint());
        w.write_u32(self.cursor as u32);
        w.write_u32(self.ids.len() as u32);
        for (&trace_vm, &engine_id) in &self.ids {
            w.write_u32(trace_vm);
            w.write_u32(engine_id.0);
        }
    }

    /// Refuses a checkpoint of another trace: its cursor and id map
    /// would point into rows this replayer does not hold.
    fn restore_state(&mut self, r: &mut geoplace_types::snap::SnapReader<'_>) -> Result<()> {
        let at = r.offset();
        let fingerprint = r.read_u64()?;
        if fingerprint != self.fingerprint() {
            return Err(geoplace_types::Error::snapshot(
                "source",
                at,
                format!(
                    "checkpoint replays another trace: rows fingerprint {fingerprint:016x}, \
                     this session's {:016x}",
                    self.fingerprint()
                ),
            ));
        }
        let at = r.offset();
        let cursor = r.read_u32()? as usize;
        if cursor > self.rows.len() {
            return Err(geoplace_types::Error::snapshot(
                "source",
                at,
                format!(
                    "trace cursor {cursor} is past the {} parsed rows",
                    self.rows.len()
                ),
            ));
        }
        let mut ids = BTreeMap::new();
        for _ in 0..r.read_u32()? {
            let trace_vm = r.read_u32()?;
            let engine_id = VmId(r.read_u32()?);
            ids.insert(trace_vm, engine_id);
        }
        self.cursor = cursor;
        self.ids = ids;
        Ok(())
    }
}

impl DeltaSource for TraceSource {
    fn advance(&mut self, fleet: &mut VmFleet, slot: TimeSlot) -> Result<FleetDelta> {
        let mut events = ExternalSlotEvents::default();
        // Fresh ids are consecutive from the fleet's watermark, assigned
        // in row order — deterministic in (trace, slot).
        let base = fleet.fresh_vm_id().0;
        let mut staged: Vec<(u32, VmId)> = Vec::new();
        let mut next = self.cursor;
        while let Some(row) = self.rows.get(next) {
            if row.slot != slot.0 {
                break;
            }
            let id = VmId(base + staged.len() as u32);
            staged.push((row.vm, id));
            events.arrivals.push(ExternalArrival {
                id,
                memory_gb: row.memory_gb,
                lifetime_slots: row.lifetime_slots,
                kind: row.kind,
                trace_seed: row.trace_seed,
            });
            if let Some(peer) = row.peer {
                let peer_id = self
                    .ids
                    .get(&peer)
                    .copied()
                    .or_else(|| {
                        staged
                            .iter()
                            .find(|&&(trace_vm, _)| trace_vm == peer)
                            .map(|&(_, id)| id)
                    })
                    .expect("parse_trace guarantees peers are declared earlier");
                events.traffic.push(ExternalPair {
                    a: id,
                    b: peer_id,
                    a_to_b_mb: row.mb_to_peer,
                    b_to_a_mb: row.mb_from_peer,
                });
            }
            next += 1;
        }
        let delta = fleet.advance_external(slot, &events)?;
        self.cursor = next;
        self.ids.extend(staged);
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use crate::trace::TraceKind;

    fn fleet() -> VmFleet {
        let mut config = FleetConfig::default();
        config.arrivals.initial_groups = 4;
        config.arrivals.groups_per_slot = 1.0;
        config.arrivals.seed = 21;
        VmFleet::new(config).unwrap()
    }

    #[test]
    fn synthetic_source_matches_advance_to() {
        let mut a = fleet();
        let mut b = fleet();
        let mut source = SyntheticSource;
        for s in 1..=5u32 {
            let via_source = source.advance(&mut a, TimeSlot(s)).unwrap();
            let direct = b.advance_to(TimeSlot(s));
            assert_eq!(via_source, direct, "slot {s}");
        }
        assert_eq!(a.active(), b.active());
    }

    #[test]
    fn external_source_applies_queued_events_once() {
        let mut fleet = fleet();
        let mut source = ExternalDeltaSource::new();
        let id = fleet.fresh_vm_id();
        source.queue_arrival(ExternalArrival {
            id,
            memory_gb: 4.0,
            lifetime_slots: 10,
            kind: TraceKind::WebServing,
            trace_seed: 7,
        });
        let peer = fleet.active()[0];
        source.queue_traffic(ExternalPair {
            a: id,
            b: peer,
            a_to_b_mb: 5.0,
            b_to_a_mb: 1.0,
        });
        let delta = source.advance(&mut fleet, TimeSlot(1)).unwrap();
        assert!(delta.arrived.contains(&id));
        assert!(fleet.active().contains(&id));
        assert!(fleet.data_correlation().directed_rates(id, peer).is_some());
        // The queue drained: the next boundary applies nothing external.
        let delta = source.advance(&mut fleet, TimeSlot(2)).unwrap();
        assert!(delta.arrived.is_empty());
    }

    #[test]
    fn trace_source_replays_rows_at_their_slots() {
        use crate::tracefile::{parse_trace, TRACE_HEADER};
        let text = format!(
            "{TRACE_HEADER}\n\
             1,0,4.0,24,web,11,,,\n\
             1,1,2.0,24,batch,12,0,6.5,1.5\n\
             3,2,8.0,6,hpc,13,1,0.0,2.25\n"
        );
        let mut fleet = fleet();
        let mut source = TraceSource::new(parse_trace(&text).unwrap());
        assert_eq!(source.remaining(), 3);

        let delta = source.advance(&mut fleet, TimeSlot(1)).unwrap();
        let a = source.engine_id(0).unwrap();
        let b = source.engine_id(1).unwrap();
        assert!(delta.arrived.contains(&a) && delta.arrived.contains(&b));
        assert_eq!(b.0, a.0 + 1, "fresh ids are consecutive in row order");
        let rates = fleet.data_correlation().directed_rates(b, a).unwrap();
        assert_eq!(rates, (6.5, 1.5), "same-slot peer wiring lands");
        assert_eq!(source.remaining(), 1);

        // A slot with no rows replays nothing (synthetic churn is off in
        // the external path; natural expiries still happen).
        let delta = source.advance(&mut fleet, TimeSlot(2)).unwrap();
        assert!(delta.arrived.is_empty());

        let delta = source.advance(&mut fleet, TimeSlot(3)).unwrap();
        let c = source.engine_id(2).unwrap();
        assert_eq!(delta.arrived, vec![c]);
        assert!(fleet.data_correlation().directed_rates(c, b).is_some());
        assert_eq!(source.remaining(), 0);
    }

    #[test]
    fn failed_external_advance_leaves_the_fleet_untouched() {
        let mut fleet = fleet();
        let mut source = ExternalDeltaSource::new();
        let before_active = fleet.active().to_vec();
        source.queue_departure(VmId(u32::MAX)); // unknown VM
        let err = source.advance(&mut fleet, TimeSlot(1)).unwrap_err();
        assert!(err.to_string().contains("not an active VM"), "{err}");
        assert_eq!(fleet.current_slot(), TimeSlot(0));
        assert_eq!(fleet.active(), &before_active[..]);
        // The bad batch was dropped: a clean retry succeeds.
        assert!(source.advance(&mut fleet, TimeSlot(1)).is_ok());
        assert_eq!(fleet.current_slot(), TimeSlot(1));
    }
}
