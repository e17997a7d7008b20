//! Arena-indexed CSR view of the pairwise traffic structure.
//!
//! [`crate::datacorr::DataCorrelation`] stores traffic as an id-keyed map
//! of undirected pairs — the right shape for mutation (arrivals,
//! departures, drift), the wrong shape for per-slot scans: the force
//! layout and the network-aware baseline both need "who does VM *i* talk
//! to" by dense slot index, repeatedly. [`TrafficGraph`] materializes
//! that adjacency once per slot: compressed sparse rows over
//! [`VmArena`] indices, each row sorted by neighbor VM id, with both
//! directed rates on every edge (the paper's data correlation is
//! bidirectional — vol(i→j) ≠ vol(j→i)).

use crate::datacorr::DataCorrelation;
use geoplace_types::{VmArena, VmId};

/// One directed adjacency entry of a [`TrafficGraph`] row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficEdge {
    /// Arena index of the neighbor.
    pub target: u32,
    /// MB per 5 s tick flowing row-VM → neighbor.
    pub out_rate: f64,
    /// MB per 5 s tick flowing neighbor → row-VM.
    pub in_rate: f64,
}

impl TrafficEdge {
    /// Total bidirectional rate of the pair (MB/tick).
    pub fn total(&self) -> f64 {
        self.out_rate + self.in_rate
    }
}

/// CSR adjacency of the slot's communicating VM pairs.
///
/// # Examples
///
/// ```
/// use geoplace_workload::fleet::{FleetConfig, VmFleet};
/// use geoplace_types::VmArena;
///
/// let fleet = VmFleet::new(FleetConfig::default())?;
/// let arena = VmArena::from_ids(fleet.active());
/// let graph = fleet.data_correlation().traffic_graph(&arena);
/// assert_eq!(graph.len(), arena.len());
/// assert!(graph.edge_count() > 0);
/// # Ok::<(), geoplace_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficGraph {
    n: usize,
    offsets: Vec<u32>,
    edges: Vec<TrafficEdge>,
    max_total: f64,
}

impl DataCorrelation {
    /// Builds the slot's CSR traffic adjacency over `arena`. Pairs with
    /// an endpoint outside the arena are skipped (departed VMs whose
    /// disconnect has not landed yet). Traffic is naturally sparse
    /// (intra-group meshes plus a few cross links), so every pair is
    /// retained — unlike the CPU-correlation graph, no top-k truncation
    /// is needed. The engine maintains the same graph incrementally
    /// ([`TrafficGraphCache`]); this from-scratch build is the reference
    /// its rebuild check compares against.
    pub fn traffic_graph(&self, arena: &VmArena) -> TrafficGraph {
        let n = arena.len();
        let ids = arena.ids();
        // Both directions of every undirected pair, as (row, edge).
        let mut entries: Vec<(u32, TrafficEdge)> = Vec::with_capacity(self.pair_count() * 2);
        for (lo, hi, traffic) in self.iter() {
            let (Some(i), Some(j)) = (arena.index_of(lo), arena.index_of(hi)) else {
                continue;
            };
            entries.push((
                i,
                TrafficEdge {
                    target: j,
                    out_rate: traffic.lo_to_hi,
                    in_rate: traffic.hi_to_lo,
                },
            ));
            entries.push((
                j,
                TrafficEdge {
                    target: i,
                    out_rate: traffic.hi_to_lo,
                    in_rate: traffic.lo_to_hi,
                },
            ));
        }
        // Rows in arena order, within a row by neighbor VM id — the
        // iteration order every consumer sees is then independent of how
        // the fleet was enumerated. Every `(row, neighbor)` key is unique,
        // so the unstable sort is deterministic.
        entries.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| ids[a.1.target as usize].cmp(&ids[b.1.target as usize]))
        });
        let mut offsets = vec![0u32; n + 1];
        for &(row, _) in &entries {
            offsets[row as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let edges = entries.into_iter().map(|(_, e)| e).collect();
        TrafficGraph {
            n,
            offsets,
            edges,
            // Normalize attraction by the *global* max pair rate — the
            // exact normalization the dense attraction matrix uses — so
            // the sparse and dense force paths agree on edge weights.
            max_total: self.max_total_rate().unwrap_or(0.0),
        }
    }
}

/// Incrementally maintained CSR source for [`TrafficGraph`].
///
/// A from-scratch [`DataCorrelation::traffic_graph`] build pays an
/// `O(E log E)` ordering sort plus fresh allocations every slot, even
/// though the *structure* of the adjacency only changes by the slot's
/// churn. This cache keeps the directed edge list sorted by
/// `(row id, neighbor id)` across slots: departures are removed with one
/// `retain`, arrivals' new pairs are merged in (both sides presorted), and
/// the per-slot emit is a single linear pass that refreshes the drifting
/// rates and rebuilds the CSR arrays in place — no sort, no allocation in
/// the steady state.
///
/// The emitted graph is **bit-identical** to the from-scratch build (the
/// equivalence the engine's incremental pipeline is gated on), provided
/// the arena lists the active ids in ascending id order — the engine's
/// invariant, asserted in debug builds.
///
/// # Examples
///
/// ```
/// use geoplace_workload::fleet::{FleetConfig, VmFleet};
/// use geoplace_workload::graph::TrafficGraphCache;
/// use geoplace_types::time::TimeSlot;
/// use geoplace_types::VmArena;
///
/// let mut fleet = VmFleet::new(FleetConfig::default())?;
/// let mut cache = TrafficGraphCache::new();
/// cache.rebuild(fleet.data_correlation());
/// for slot in 1..=3u32 {
///     let delta = fleet.advance_to(TimeSlot(slot));
///     cache.apply_delta(&delta.departed, &delta.connected, fleet.data_correlation());
///     let arena = VmArena::from_ids(fleet.active());
///     let graph = cache.emit(fleet.data_correlation(), &arena);
///     assert_eq!(graph, &fleet.data_correlation().traffic_graph(&arena));
/// }
/// # Ok::<(), geoplace_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct TrafficGraphCache {
    /// Both directions of every live pair, sorted by `(row, neighbor)`.
    directed: Vec<(VmId, VmId)>,
    /// Scratch for the per-boundary merge of new directed entries.
    insert_buf: Vec<(VmId, VmId)>,
    merge_buf: Vec<(VmId, VmId)>,
    departed_buf: Vec<VmId>,
    /// The emitted graph; its CSR arrays are refilled in place.
    graph: TrafficGraph,
}

impl Default for TrafficGraphCache {
    fn default() -> Self {
        TrafficGraphCache::new()
    }
}

impl TrafficGraphCache {
    /// Creates an empty cache; call [`TrafficGraphCache::rebuild`] before
    /// the first emit.
    pub fn new() -> Self {
        TrafficGraphCache {
            directed: Vec::new(),
            insert_buf: Vec::new(),
            merge_buf: Vec::new(),
            departed_buf: Vec::new(),
            graph: TrafficGraph {
                n: 0,
                offsets: vec![0],
                edges: Vec::new(),
                max_total: 0.0,
            },
        }
    }

    /// Rebuilds the directed edge list from the full pair map (slot 0, or
    /// any point the caller wants to resynchronize).
    pub fn rebuild(&mut self, data: &DataCorrelation) {
        self.directed.clear();
        for (lo, hi, _) in data.iter() {
            self.directed.push((lo, hi));
            self.directed.push((hi, lo));
        }
        self.directed.sort_unstable();
    }

    /// Applies one slot boundary's structural churn: every edge touching a
    /// departed VM is dropped, and the newly `connected` pairs (canonical
    /// `(lower, higher)` keys, as reported by
    /// [`crate::fleet::FleetDelta::connected`]) are merged in. Pairs whose
    /// endpoint already departed again (multi-boundary advances) are
    /// skipped — only pairs still present in `data` enter the list.
    pub fn apply_delta(
        &mut self,
        departed: &[VmId],
        connected: &[(VmId, VmId)],
        data: &DataCorrelation,
    ) {
        if !departed.is_empty() {
            self.departed_buf.clear();
            self.departed_buf.extend_from_slice(departed);
            self.departed_buf.sort_unstable();
            let gone = &self.departed_buf;
            self.directed.retain(|&(row, nbr)| {
                gone.binary_search(&row).is_err() && gone.binary_search(&nbr).is_err()
            });
        }
        if !connected.is_empty() {
            self.insert_buf.clear();
            for &(lo, hi) in connected {
                if data.directed_rates(lo, hi).is_some() {
                    self.insert_buf.push((lo, hi));
                    self.insert_buf.push((hi, lo));
                }
            }
            self.insert_buf.sort_unstable();
            self.insert_buf.dedup();
            if self.insert_buf.is_empty() {
                return;
            }
            // Linear merge of two sorted runs into the reusable buffer.
            self.merge_buf.clear();
            self.merge_buf
                .reserve(self.directed.len() + self.insert_buf.len());
            let (mut a, mut b) = (0usize, 0usize);
            while a < self.directed.len() && b < self.insert_buf.len() {
                if self.directed[a] <= self.insert_buf[b] {
                    self.merge_buf.push(self.directed[a]);
                    a += 1;
                } else {
                    self.merge_buf.push(self.insert_buf[b]);
                    b += 1;
                }
            }
            self.merge_buf.extend_from_slice(&self.directed[a..]);
            self.merge_buf.extend_from_slice(&self.insert_buf[b..]);
            std::mem::swap(&mut self.directed, &mut self.merge_buf);
        }
    }

    /// Emits the slot's [`TrafficGraph`] over `arena`, refreshing every
    /// edge's drifting rates from `data`. One linear pass; the CSR arrays
    /// of the cached graph are refilled in place.
    ///
    /// # Panics
    ///
    /// Panics when an edge references a VM outside the arena or a pair
    /// missing from `data` — either means the caller let the cache drift
    /// out of sync with the fleet, and silently emitting a structurally
    /// wrong graph would surface only as a distant digest mismatch.
    /// The arena id-ordering precondition is asserted in debug builds.
    pub fn emit(&mut self, data: &DataCorrelation, arena: &VmArena) -> &TrafficGraph {
        debug_assert!(
            arena.ids().windows(2).all(|pair| pair[0] < pair[1]),
            "incremental CSR requires an id-ordered arena"
        );
        let n = arena.len();
        let graph = &mut self.graph;
        graph.n = n;
        graph.offsets.clear();
        graph.offsets.resize(n + 1, 0);
        graph.edges.clear();
        for &(row, nbr) in &self.directed {
            let (Some(i), Some(j)) = (arena.index_of(row), arena.index_of(nbr)) else {
                panic!("cached edge {row}→{nbr} outside the arena — cache out of sync");
            };
            let (out_rate, in_rate) = data
                .directed_rates(row, nbr)
                .expect("cached edge must exist in the pair map");
            graph.offsets[i as usize + 1] += 1;
            graph.edges.push(TrafficEdge {
                target: j,
                out_rate,
                in_rate,
            });
        }
        for i in 0..n {
            graph.offsets[i + 1] += graph.offsets[i];
        }
        graph.max_total = data.max_total_rate().unwrap_or(0.0);
        graph
    }

    /// Number of directed entries currently tracked.
    pub fn edge_count(&self) -> usize {
        self.directed.len()
    }

    /// The most recently emitted graph, without refreshing it. Valid only
    /// after an [`TrafficGraphCache::emit`] for the current arena — the
    /// stepwise engine emits during its advance phase and re-borrows the
    /// result here when assembling the (immutable) snapshot.
    pub fn graph(&self) -> &TrafficGraph {
        &self.graph
    }
}

impl TrafficGraph {
    /// Number of rows (= arena size).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph covers no VMs.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Stored directed adjacency entries (each undirected pair counts
    /// twice — once per endpoint row).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adjacency row of one arena index, sorted by neighbor VM id.
    pub fn row(&self, i: usize) -> &[TrafficEdge] {
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The fleet-wide maximum total pair rate (MB/tick) — the attraction
    /// normalization basis (0.0 when no pairs exist).
    pub fn max_total_rate(&self) -> f64 {
        self.max_total
    }

    /// Directed attraction `F_a ∈ [−1, 0]` along one stored edge, per
    /// Eq. 5: the normalized rate flowing *into* the row VM from the
    /// edge's neighbor (the force that pulls the row VM toward it).
    pub fn attraction_in(&self, edge: &TrafficEdge) -> f64 {
        if self.max_total <= 0.0 {
            return 0.0;
        }
        -(edge.in_rate / self.max_total).clamp(0.0, 1.0)
    }

    /// Iterates every undirected pair exactly once as `(row, edge)`
    /// with the row on the lower-VM-id side (every pair is stored in
    /// both endpoint rows, so this is a pure filter).
    pub fn pairs<'a>(
        &'a self,
        arena: &'a VmArena,
    ) -> impl Iterator<Item = (u32, &'a TrafficEdge)> + 'a {
        (0..self.n).flat_map(move |i| {
            let id_i = arena.id(i as u32);
            self.row(i)
                .iter()
                .filter(move |edge| id_i < arena.id(edge.target))
                .map(move |edge| (i as u32, edge))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacorr::DataCorrelationConfig;
    use crate::fleet::{FleetConfig, VmFleet};
    use geoplace_types::VmId;

    fn fleet() -> VmFleet {
        let mut config = FleetConfig::default();
        config.arrivals.initial_groups = 6;
        config.arrivals.group_size_range = (3, 3);
        config.arrivals.seed = 5;
        VmFleet::new(config).unwrap()
    }

    #[test]
    fn graph_matches_pair_map() {
        let fleet = fleet();
        let arena = VmArena::from_ids(fleet.active());
        let data = fleet.data_correlation();
        let graph = data.traffic_graph(&arena);
        assert_eq!(graph.edge_count(), data.pair_count() * 2);
        for i in 0..graph.len() {
            let vm_i = arena.id(i as u32);
            for edge in graph.row(i) {
                let vm_j = arena.id(edge.target);
                let expected =
                    data.slot_volume(vm_i, vm_j).0 / geoplace_types::time::TICKS_PER_SLOT as f64;
                assert!((edge.out_rate - expected).abs() < 1e-9);
            }
        }
        assert_eq!(graph.max_total_rate(), data.max_total_rate().unwrap_or(0.0));
    }

    #[test]
    fn rows_are_sorted_by_neighbor_id() {
        let fleet = fleet();
        let arena = VmArena::from_ids(fleet.active());
        let graph = fleet.data_correlation().traffic_graph(&arena);
        for i in 0..graph.len() {
            let row = graph.row(i);
            for pair in row.windows(2) {
                assert!(arena.id(pair[0].target) < arena.id(pair[1].target));
            }
        }
    }

    #[test]
    fn pairs_visit_each_undirected_pair_once() {
        let fleet = fleet();
        let arena = VmArena::from_ids(fleet.active());
        let data = fleet.data_correlation();
        let graph = data.traffic_graph(&arena);
        let seen: Vec<(u32, u32)> = graph.pairs(&arena).map(|(i, e)| (i, e.target)).collect();
        assert_eq!(seen.len(), data.pair_count());
        let mut canonical: Vec<(u32, u32)> = seen
            .iter()
            .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        canonical.sort_unstable();
        canonical.dedup();
        assert_eq!(canonical.len(), data.pair_count(), "duplicate pair");
    }

    #[test]
    fn attraction_normalization_matches_dense_matrix() {
        let fleet = fleet();
        let arena = VmArena::from_ids(fleet.active());
        let data = fleet.data_correlation();
        let graph = data.traffic_graph(&arena);
        let n = arena.len();
        let dense = data.directed_attraction_matrix(arena.ids());
        for i in 0..n {
            for edge in graph.row(i) {
                let j = edge.target as usize;
                // attraction_in(edge of row i) is the force j→i, i.e. the
                // dense matrix entry [j][i].
                assert!(
                    (graph.attraction_in(edge) - dense[j * n + i]).abs() < 1e-12,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn skips_pairs_outside_arena() {
        let fleet = fleet();
        let all = fleet.active().to_vec();
        let half = VmArena::from_ids(&all[..all.len() / 2]);
        let graph = fleet.data_correlation().traffic_graph(&half);
        assert_eq!(graph.len(), half.len());
        for i in 0..graph.len() {
            for edge in graph.row(i) {
                assert!((edge.target as usize) < half.len());
            }
        }
    }

    #[test]
    fn cache_tracks_churn_bit_identically() {
        let mut config = FleetConfig::default();
        config.arrivals.initial_groups = 12;
        config.arrivals.groups_per_slot = 3.0;
        config.arrivals.mean_lifetime_slots = 3.0;
        config.arrivals.seed = 11;
        let mut fleet = VmFleet::new(config).unwrap();
        let mut cache = TrafficGraphCache::new();
        cache.rebuild(fleet.data_correlation());
        let mut saw_departure = false;
        let mut saw_arrival = false;
        for slot in 1..=20u32 {
            let delta = fleet.advance_to(geoplace_types::time::TimeSlot(slot));
            saw_departure |= !delta.departed.is_empty();
            saw_arrival |= !delta.arrived.is_empty();
            cache.apply_delta(&delta.departed, &delta.connected, fleet.data_correlation());
            let arena = VmArena::from_ids(fleet.active());
            let expected = fleet.data_correlation().traffic_graph(&arena);
            assert_eq!(
                cache.emit(fleet.data_correlation(), &arena),
                &expected,
                "slot {slot}"
            );
            assert_eq!(cache.edge_count(), expected.edge_count());
        }
        assert!(saw_departure && saw_arrival, "churn must actually occur");
    }

    #[test]
    fn cache_survives_multi_boundary_advances() {
        let mut config = FleetConfig::default();
        config.arrivals.initial_groups = 8;
        config.arrivals.groups_per_slot = 4.0;
        config.arrivals.mean_lifetime_slots = 2.0;
        config.arrivals.seed = 23;
        let mut fleet = VmFleet::new(config).unwrap();
        let mut cache = TrafficGraphCache::new();
        cache.rebuild(fleet.data_correlation());
        // Jump several boundaries at once: VMs may arrive *and* depart
        // within one delta, and their pairs must not leak into the list.
        for &slot in &[4u32, 5, 9, 16] {
            let delta = fleet.advance_to(geoplace_types::time::TimeSlot(slot));
            cache.apply_delta(&delta.departed, &delta.connected, fleet.data_correlation());
            let arena = VmArena::from_ids(fleet.active());
            let expected = fleet.data_correlation().traffic_graph(&arena);
            assert_eq!(
                cache.emit(fleet.data_correlation(), &arena),
                &expected,
                "slot {slot}"
            );
        }
    }

    #[test]
    fn empty_data_builds_empty_graph() {
        let data = DataCorrelation::new(DataCorrelationConfig::default());
        let arena = VmArena::from_ids(&[VmId(0), VmId(1)]);
        let graph = data.traffic_graph(&arena);
        assert_eq!(graph.edge_count(), 0);
        assert_eq!(graph.max_total_rate(), 0.0);
        assert_eq!(graph.pairs(&arena).count(), 0);
    }
}
