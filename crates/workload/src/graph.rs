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
//!
//! The rates drift every slot, so every slot re-reads every pair.
//! [`TrafficGraph::refill`] is the one build: two linear passes over the
//! pair map into buffers the engine keeps from slot to slot.
//! [`DataCorrelation::traffic_graph`] wraps it for callers that want a
//! fresh graph.

use crate::datacorr::DataCorrelation;
use geoplace_types::VmArena;

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
    /// Builds the slot's CSR traffic adjacency over `arena`: an
    /// allocating [`TrafficGraph::refill`].
    pub fn traffic_graph(&self, arena: &VmArena) -> TrafficGraph {
        let mut graph = TrafficGraph::default();
        graph.refill(self, arena);
        graph
    }
}

impl Default for TrafficGraph {
    /// The graph over an empty arena.
    fn default() -> Self {
        TrafficGraph {
            n: 0,
            offsets: vec![0],
            edges: Vec::new(),
            max_total: 0.0,
        }
    }
}

impl TrafficGraph {
    /// Rebuilds the graph over `arena` from `data`'s pair map, reusing
    /// its buffers. Pairs with an endpoint outside the arena are skipped
    /// (departed VMs whose disconnect has not landed yet). Traffic is
    /// naturally sparse (intra-group meshes plus a few cross links), so
    /// every pair is retained — unlike the CPU-correlation graph, no
    /// top-k truncation is needed.
    ///
    /// Two passes over the map: the first counts each row's pairs and
    /// prefix-sums the counts into `offsets`, the second writes both
    /// directions of every pair. The map iterates `(lower, higher)` keys
    /// in ascending order, so a row receives its lower neighbors and
    /// then its higher ones, each group ascending: every row comes out
    /// sorted by neighbor VM id, whatever order the arena lists the VMs
    /// in, and no sort is needed.
    pub fn refill(&mut self, data: &DataCorrelation, arena: &VmArena) {
        let n = arena.len();
        self.n = n;
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for (lo, hi, _) in data.iter() {
            if let (Some(i), Some(j)) = (arena.index_of(lo), arena.index_of(hi)) {
                self.offsets[i as usize + 1] += 1;
                self.offsets[j as usize + 1] += 1;
            }
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        let unset = TrafficEdge {
            target: 0,
            out_rate: 0.0,
            in_rate: 0.0,
        };
        self.edges.clear();
        self.edges.resize(self.offsets[n] as usize, unset);
        // `offsets[i]` serves as row i's write cursor and ends at row
        // i + 1's start; the shift below puts every start back.
        let mut push = |row: u32, edge: TrafficEdge| {
            let cursor = &mut self.offsets[row as usize];
            self.edges[*cursor as usize] = edge;
            *cursor += 1;
        };
        for (lo, hi, traffic) in data.iter() {
            let (Some(i), Some(j)) = (arena.index_of(lo), arena.index_of(hi)) else {
                continue;
            };
            push(
                i,
                TrafficEdge {
                    target: j,
                    out_rate: traffic.lo_to_hi,
                    in_rate: traffic.hi_to_lo,
                },
            );
            push(
                j,
                TrafficEdge {
                    target: i,
                    out_rate: traffic.hi_to_lo,
                    in_rate: traffic.lo_to_hi,
                },
            );
        }
        self.offsets.copy_within(0..n, 1);
        self.offsets[0] = 0;
        // Normalize attraction by the *global* max pair rate — the exact
        // normalization the dense attraction matrix uses — so the sparse
        // and dense force paths agree on edge weights.
        self.max_total = data.max_total_rate().unwrap_or(0.0);
    }

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
        let data = fleet.data_correlation();
        let sorted = VmArena::from_ids(fleet.active());
        assert_agrees_with_pair_map(&data.traffic_graph(&sorted), data, &sorted);
        // The rows come out in id order whatever order the arena lists
        // the VMs in.
        let mut ids = fleet.active().to_vec();
        ids.sort_unstable_by_key(|vm| vm.0.wrapping_mul(0x9E37_79B1));
        assert_ne!(ids, fleet.active());
        let shuffled = VmArena::from_ids(&ids);
        assert_agrees_with_pair_map(&data.traffic_graph(&shuffled), data, &shuffled);
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

    /// Every row holds exactly the in-arena pairs of its VM with the
    /// map's directed rates, sorted by neighbor VM id.
    fn assert_agrees_with_pair_map(graph: &TrafficGraph, data: &DataCorrelation, arena: &VmArena) {
        let in_arena = data
            .iter()
            .filter(|&(lo, hi, _)| arena.contains(lo) && arena.contains(hi))
            .count();
        assert_eq!(graph.len(), arena.len());
        assert_eq!(graph.edge_count(), in_arena * 2);
        for i in 0..graph.len() {
            let vm_i = arena.id(i as u32);
            let row = graph.row(i);
            for pair in row.windows(2) {
                assert!(arena.id(pair[0].target) < arena.id(pair[1].target));
            }
            for edge in row {
                let rates = data.directed_rates(vm_i, arena.id(edge.target));
                assert_eq!(rates, Some((edge.out_rate, edge.in_rate)));
            }
        }
        assert_eq!(graph.max_total_rate(), data.max_total_rate().unwrap_or(0.0));
    }

    #[test]
    fn refill_tracks_churn_bit_identically() {
        let mut config = FleetConfig::default();
        config.arrivals.initial_groups = 12;
        config.arrivals.groups_per_slot = 3.0;
        config.arrivals.mean_lifetime_slots = 3.0;
        config.arrivals.seed = 11;
        let mut fleet = VmFleet::new(config).unwrap();
        let mut graph = TrafficGraph::default();
        let mut saw_departure = false;
        let mut saw_arrival = false;
        for slot in 1..=20u32 {
            let delta = fleet.advance_to(geoplace_types::time::TimeSlot(slot));
            saw_departure |= !delta.departed.is_empty();
            saw_arrival |= !delta.arrived.is_empty();
            let arena = VmArena::from_ids(fleet.active());
            let data = fleet.data_correlation();
            graph.refill(data, &arena);
            assert_eq!(graph, data.traffic_graph(&arena), "slot {slot}");
            assert_agrees_with_pair_map(&graph, data, &arena);
        }
        assert!(saw_departure && saw_arrival, "churn must actually occur");
    }

    #[test]
    fn refill_survives_multi_boundary_advances() {
        let mut config = FleetConfig::default();
        config.arrivals.initial_groups = 8;
        config.arrivals.groups_per_slot = 4.0;
        config.arrivals.mean_lifetime_slots = 2.0;
        config.arrivals.seed = 23;
        let mut fleet = VmFleet::new(config).unwrap();
        let mut graph = TrafficGraph::default();
        // Jump several boundaries at once (VMs may arrive *and* depart
        // within one delta), and shrink the arena to nothing in between:
        // no row, edge or offset of an earlier fill may survive.
        for &slot in &[4u32, 5, 9, 16] {
            fleet.advance_to(geoplace_types::time::TimeSlot(slot));
            let data = fleet.data_correlation();
            for arena in [VmArena::from_ids(fleet.active()), VmArena::default()] {
                graph.refill(data, &arena);
                assert_eq!(graph, data.traffic_graph(&arena), "slot {slot}");
                assert_agrees_with_pair_map(&graph, data, &arena);
            }
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
