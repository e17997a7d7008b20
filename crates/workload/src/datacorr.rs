//! Bidirectional data correlation between VM pairs.
//!
//! Data correlation is "the dependency between each two VMs due to the
//! amount of data that they need to exchange"; the paper stresses that it
//! is *bidirectional* (vol(i→j) ≠ vol(j→i)) and that the volumes "change at
//! runtime depending on real-time information".
//!
//! Volumes are generated per the paper: log-normal with an arithmetic mean
//! of 10 MB (per 5 s sample) and a per-pair log-space variance drawn
//! uniformly from `[1, 4]`. Traffic lives mostly *inside application
//! groups*; a configurable number of cross-group links models shared
//! services. Each slot the rates drift by a bounded multiplicative random
//! walk (the "runtime change").

use crate::distributions::LogNormal;
use crate::vm::{GroupId, VmSpec};
use geoplace_types::time::TICKS_PER_SLOT;
use geoplace_types::units::Megabytes;
use geoplace_types::VmId;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Traffic of one VM pair in both directions, in MB per 5 s tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairTraffic {
    /// MB per tick flowing from the lower-id VM to the higher-id VM.
    pub lo_to_hi: f64,
    /// MB per tick flowing from the higher-id VM to the lower-id VM.
    pub hi_to_lo: f64,
    /// Initial total rate, anchoring the runtime drift.
    anchor: f64,
}

impl PairTraffic {
    /// Total bidirectional rate in MB per tick.
    pub fn total(&self) -> f64 {
        self.lo_to_hi + self.hi_to_lo
    }
}

/// Arithmetic mean of the per-direction volume per 5 s tick (MB) inside
/// an application group. Paper: 10 MB.
const INTRA_GROUP_MEAN_MB: f64 = 10.0;

/// Mean volume per tick for cross-group links (MB).
const CROSS_GROUP_MEAN_MB: f64 = 1.0;

/// Log-space variance range, drawn uniformly per pair direction. Paper:
/// [1, 4].
const VARIANCE_RANGE: (f64, f64) = (1.0, 4.0);

/// Per-slot multiplicative drift magnitude of the runtime random walk.
const DRIFT_SIGMA: f64 = 0.15;

/// Configuration of the data-correlation generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataCorrelationConfig {
    /// Number of random cross-group peers each VM connects to on arrival.
    pub cross_links_per_vm: u32,
}

impl Default for DataCorrelationConfig {
    fn default() -> Self {
        DataCorrelationConfig {
            cross_links_per_vm: 2,
        }
    }
}

/// Sparse, mutable map of pairwise bidirectional traffic rates.
///
/// # Examples
///
/// ```
/// use geoplace_workload::datacorr::{DataCorrelation, DataCorrelationConfig};
/// use geoplace_workload::arrivals::{ArrivalConfig, ArrivalProcess};
/// use rand::SeedableRng;
///
/// let mut arrivals = ArrivalProcess::new(ArrivalConfig::default()).unwrap();
/// let vms = arrivals.initial_population();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut corr = DataCorrelation::new(DataCorrelationConfig::default());
/// corr.connect_arrivals(&vms, &vms, &mut rng);
/// assert!(corr.pair_count() > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataCorrelation {
    config: DataCorrelationConfig,
    /// Ordered so that iteration (and the per-pair RNG draws in
    /// [`DataCorrelation::evolve`]) is deterministic across runs.
    pairs: BTreeMap<(VmId, VmId), PairTraffic>,
}

impl DataCorrelation {
    /// Creates an empty traffic map.
    pub fn new(config: DataCorrelationConfig) -> Self {
        DataCorrelation {
            config,
            pairs: BTreeMap::new(),
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &DataCorrelationConfig {
        &self.config
    }

    /// Number of communicating pairs currently tracked.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// Wires newly arrived VMs: full mesh inside each application group at
    /// the intra-group rate plus `cross_links_per_vm` random links into the
    /// existing population at the cross-group rate.
    ///
    /// Returns the pairs actually inserted, as canonical `(lower, higher)`
    /// keys — the delta the incremental traffic-graph cache consumes.
    pub fn connect_arrivals<R: Rng + ?Sized>(
        &mut self,
        arrivals: &[VmSpec],
        population: &[VmSpec],
        rng: &mut R,
    ) -> Vec<(VmId, VmId)> {
        let mut inserted = Vec::new();
        // Intra-group full mesh: each arrival pairs with the later
        // arrivals of its group, in arrival order (the order the RNG
        // draws are pinned to). Indexing the groups first keeps this
        // linear in the pairs instead of quadratic in the arrivals.
        let mut members: BTreeMap<GroupId, Vec<usize>> = BTreeMap::new();
        for (pos, vm) in arrivals.iter().enumerate() {
            members.entry(vm.group()).or_default().push(pos);
        }
        for (pos, a) in arrivals.iter().enumerate() {
            let group = &members[&a.group()];
            for &later in &group[group.partition_point(|&p| p <= pos)..] {
                let b = &arrivals[later];
                let traffic = self.sample_pair(INTRA_GROUP_MEAN_MB, rng);
                if self.pairs.insert(key(a.id(), b.id()), traffic).is_none() {
                    inserted.push(key(a.id(), b.id()));
                }
            }
        }
        // Cross-group links into the wider population.
        if !population.is_empty() {
            for a in arrivals {
                for _ in 0..self.config.cross_links_per_vm {
                    let b = &population[rng.gen_range(0..population.len())];
                    if b.id() == a.id() || b.group() == a.group() {
                        continue;
                    }
                    let traffic = self.sample_pair(CROSS_GROUP_MEAN_MB, rng);
                    if let std::collections::btree_map::Entry::Vacant(slot) =
                        self.pairs.entry(key(a.id(), b.id()))
                    {
                        slot.insert(traffic);
                        inserted.push(key(a.id(), b.id()));
                    }
                }
            }
        }
        inserted
    }

    /// Wires (or re-rates) one pair with externally specified directed
    /// rates in MB per 5 s tick, `a → b` and `b → a`. The anchor is set to
    /// the pair's total so a later [`DataCorrelation::evolve`] drifts
    /// around the externally given level. Returns `true` when the pair is
    /// structurally new — the caller forwards exactly those pairs to the
    /// incremental traffic-graph cache as its edge delta.
    pub fn wire_pair(&mut self, a: VmId, b: VmId, a_to_b: f64, b_to_a: f64) -> bool {
        let (lo_to_hi, hi_to_lo) = if a < b {
            (a_to_b, b_to_a)
        } else {
            (b_to_a, a_to_b)
        };
        let traffic = PairTraffic {
            lo_to_hi,
            hi_to_lo,
            anchor: lo_to_hi + hi_to_lo,
        };
        self.pairs.insert(key(a, b), traffic).is_none()
    }

    /// Drops every pair touching a departed VM.
    pub fn disconnect(&mut self, departed: &[VmId]) {
        if departed.is_empty() {
            return;
        }
        let gone: std::collections::HashSet<VmId> = departed.iter().copied().collect();
        self.pairs
            .retain(|(a, b), _| !gone.contains(a) && !gone.contains(b));
    }

    /// Applies the per-slot runtime drift: each direction's rate moves by a
    /// log-normal multiplicative step, clamped to `[¼, 4]×` its anchor so
    /// traffic stays recognizably "the same application".
    pub fn evolve<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for traffic in self.pairs.values_mut() {
            let lo = traffic.anchor / 4.0;
            let hi = traffic.anchor * 4.0;
            let step_a = (DRIFT_SIGMA * crate::distributions::standard_normal(rng)).exp();
            let step_b = (DRIFT_SIGMA * crate::distributions::standard_normal(rng)).exp();
            traffic.lo_to_hi = (traffic.lo_to_hi * step_a).clamp(lo * 0.5, hi * 0.5);
            traffic.hi_to_lo = (traffic.hi_to_lo * step_b).clamp(lo * 0.5, hi * 0.5);
        }
    }

    /// Directed volume `a → b` over one whole slot.
    pub fn slot_volume(&self, from: VmId, to: VmId) -> Megabytes {
        let Some(traffic) = self.pairs.get(&key(from, to)) else {
            return Megabytes::ZERO;
        };
        let rate = if from < to {
            traffic.lo_to_hi
        } else {
            traffic.hi_to_lo
        };
        Megabytes(rate * TICKS_PER_SLOT as f64)
    }

    /// Directed rates of a pair in MB per tick as `(from → to, to → from)`,
    /// or `None` when the pair does not communicate. The incremental CSR
    /// refresh reads drifting rates through this without re-deriving the
    /// canonical key ordering at every edge.
    pub fn directed_rates(&self, from: VmId, to: VmId) -> Option<(f64, f64)> {
        let traffic = self.pairs.get(&key(from, to))?;
        if from < to {
            Some((traffic.lo_to_hi, traffic.hi_to_lo))
        } else {
            Some((traffic.hi_to_lo, traffic.lo_to_hi))
        }
    }

    /// Total bidirectional volume of a pair over one slot.
    pub fn pair_slot_volume(&self, a: VmId, b: VmId) -> Megabytes {
        self.pairs.get(&key(a, b)).map_or(Megabytes::ZERO, |t| {
            Megabytes(t.total() * TICKS_PER_SLOT as f64)
        })
    }

    /// Iterates `(lower_vm, higher_vm, traffic)` over all pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VmId, VmId, &PairTraffic)> {
        self.pairs.iter().map(|(&(a, b), t)| (a, b, t))
    }

    /// The largest total pair rate (MB/tick); normalization basis for the
    /// attraction force. Returns `None` when no pairs exist.
    pub fn max_total_rate(&self) -> Option<f64> {
        self.pairs
            .values()
            .map(PairTraffic::total)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// Attraction force `F_a ∈ [−1, 0)` between two VMs per Eq. 5: the
    /// normalized amount of data the pair exchanges, negated. Pairs with no
    /// traffic get 0 (no attraction).
    pub fn attraction(&self, a: VmId, b: VmId) -> f64 {
        let Some(max) = self.max_total_rate() else {
            return 0.0;
        };
        if max <= 0.0 {
            return 0.0;
        }
        let total = self.pairs.get(&key(a, b)).map_or(0.0, PairTraffic::total);
        -(total / max)
    }

    /// Directed attraction `F_a^{i→j}` (bidirectional correlation makes the
    /// force from i to j differ from j to i; Sect. IV-B of the paper).
    pub fn directed_attraction(&self, from: VmId, to: VmId) -> f64 {
        let Some(max) = self.max_total_rate() else {
            return 0.0;
        };
        if max <= 0.0 {
            return 0.0;
        }
        let Some(traffic) = self.pairs.get(&key(from, to)) else {
            return 0.0;
        };
        let rate = if from < to {
            traffic.lo_to_hi
        } else {
            traffic.hi_to_lo
        };
        // Normalize by the max *total* rate so directed values stay
        // comparable with the symmetric attraction.
        -(rate / max).clamp(0.0, 1.0)
    }

    /// Dense `n × n` matrix of directed attractions for the given VM set:
    /// `m[i·n + j] = F_a^{i→j} ∈ [−1, 0]`. One pass over the sparse pairs,
    /// so it is the right call for the force layout's inner loop (the
    /// per-pair [`DataCorrelation::directed_attraction`] re-derives the
    /// normalization each call).
    pub fn directed_attraction_matrix(&self, ids: &[VmId]) -> Vec<f64> {
        let n = ids.len();
        let mut matrix = vec![0.0f64; n * n];
        let Some(max) = self.max_total_rate() else {
            return matrix;
        };
        if max <= 0.0 {
            return matrix;
        }
        let index: HashMap<VmId, usize> = ids.iter().enumerate().map(|(i, &vm)| (vm, i)).collect();
        for (lo, hi, traffic) in self.iter() {
            let (Some(&i), Some(&j)) = (index.get(&lo), index.get(&hi)) else {
                continue;
            };
            // Keys are (lower, higher): `lo_to_hi` flows i→j here.
            matrix[i * n + j] = -(traffic.lo_to_hi / max).clamp(0.0, 1.0);
            matrix[j * n + i] = -(traffic.hi_to_lo / max).clamp(0.0, 1.0);
        }
        matrix
    }

    /// Appends every pair (rates *and* the drift anchor, which no public
    /// accessor exposes) to a checkpoint section.
    pub fn save_state(&self, w: &mut geoplace_types::snap::SnapWriter) {
        w.write_u32(self.pairs.len() as u32);
        for (&(a, b), traffic) in &self.pairs {
            w.write_u32(a.0);
            w.write_u32(b.0);
            w.write_f64(traffic.lo_to_hi);
            w.write_f64(traffic.hi_to_lo);
            w.write_f64(traffic.anchor);
        }
    }

    /// Replaces the pair map with checkpointed state.
    ///
    /// # Errors
    ///
    /// Returns [`geoplace_types::Error::Snapshot`] on truncation or a
    /// non-canonical (not strictly `lower < higher`) key.
    pub fn restore_state(
        &mut self,
        r: &mut geoplace_types::snap::SnapReader<'_>,
    ) -> Result<(), geoplace_types::Error> {
        let count = r.read_u32()?;
        self.pairs.clear();
        for _ in 0..count {
            let at = r.offset();
            let a = VmId(r.read_u32()?);
            let b = VmId(r.read_u32()?);
            let traffic = PairTraffic {
                lo_to_hi: r.read_f64()?,
                hi_to_lo: r.read_f64()?,
                anchor: r.read_f64()?,
            };
            if a >= b || self.pairs.insert((a, b), traffic).is_some() {
                return Err(geoplace_types::Error::snapshot(
                    "traffic",
                    at,
                    format!("pair ({a}, {b}) is not canonical or duplicated"),
                ));
            }
        }
        Ok(())
    }

    fn sample_pair<R: Rng + ?Sized>(&self, mean_mb: f64, rng: &mut R) -> PairTraffic {
        let (var_lo, var_hi) = VARIANCE_RANGE;
        let direction = |rng: &mut R| {
            let variance = rng.gen_range(var_lo..=var_hi);
            LogNormal::with_arithmetic_mean(mean_mb, variance)
                .expect("validated mean/variance")
                .sample(rng)
        };
        let lo_to_hi = direction(rng);
        let hi_to_lo = direction(rng);
        PairTraffic {
            lo_to_hi,
            hi_to_lo,
            anchor: lo_to_hi + hi_to_lo,
        }
    }
}

/// Canonical unordered key: (lower id, higher id).
fn key(a: VmId, b: VmId) -> (VmId, VmId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::arrivals::{ArrivalConfig, ArrivalProcess};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(groups: u32, size: u32) -> Vec<VmSpec> {
        let mut config = ArrivalConfig::default();
        config.initial_groups = groups;
        config.group_size_range = (size, size);
        ArrivalProcess::new(config).unwrap().initial_population()
    }

    fn connected(groups: u32, size: u32, seed: u64) -> (DataCorrelation, Vec<VmSpec>) {
        let vms = population(groups, size);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut corr = DataCorrelation::new(DataCorrelationConfig::default());
        corr.connect_arrivals(&vms, &vms, &mut rng);
        (corr, vms)
    }

    #[test]
    fn intra_group_pairs_form_full_mesh() {
        let (corr, vms) = connected(3, 4, 1);
        // Each group of 4 contributes C(4,2)=6 pairs; cross links add more.
        assert!(corr.pair_count() >= 18, "pairs {}", corr.pair_count());
        // Any two same-group VMs must communicate.
        let a = &vms[0];
        let b = vms
            .iter()
            .find(|v| v.group() == a.group() && v.id() != a.id())
            .unwrap();
        assert!(corr.pair_slot_volume(a.id(), b.id()).0 > 0.0);
    }

    #[test]
    fn attraction_is_normalized_and_negative() {
        let (corr, vms) = connected(4, 3, 2);
        let mut min_seen = 0.0f64;
        for a in &vms {
            for b in &vms {
                if a.id() == b.id() {
                    continue;
                }
                let f = corr.attraction(a.id(), b.id());
                assert!((-1.0..=0.0).contains(&f), "attraction {f}");
                min_seen = min_seen.min(f);
            }
        }
        // The heaviest pair must hit exactly −1.
        assert!((min_seen + 1.0).abs() < 1e-9, "min attraction {min_seen}");
    }

    #[test]
    fn directed_volumes_are_bidirectional_and_asymmetric() {
        let (corr, vms) = connected(1, 2, 3);
        let (a, b) = (vms[0].id(), vms[1].id());
        let ab = corr.slot_volume(a, b);
        let ba = corr.slot_volume(b, a);
        assert!(ab.0 > 0.0 && ba.0 > 0.0);
        assert_ne!(ab, ba, "independent draws should differ");
        let total = corr.pair_slot_volume(a, b);
        assert!((total.0 - ab.0 - ba.0).abs() < 1e-9);
    }

    #[test]
    fn unconnected_pair_has_zero_volume() {
        let (corr, _) = connected(2, 2, 4);
        assert_eq!(corr.slot_volume(VmId(900), VmId(901)), Megabytes::ZERO);
        assert_eq!(corr.attraction(VmId(900), VmId(901)), 0.0);
    }

    #[test]
    fn disconnect_removes_all_pairs_of_vm() {
        let (mut corr, vms) = connected(2, 3, 5);
        let victim = vms[0].id();
        corr.disconnect(&[victim]);
        assert!(corr.iter().all(|(a, b, _)| a != victim && b != victim));
    }

    #[test]
    fn evolve_keeps_rates_bounded_and_changes_them() {
        let (mut corr, vms) = connected(2, 3, 6);
        let (a, b) = (vms[0].id(), vms[1].id());
        let before = corr.pair_slot_volume(a, b);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..50 {
            corr.evolve(&mut rng);
        }
        let after = corr.pair_slot_volume(a, b);
        assert_ne!(before, after, "drift should move the rate");
        for (_, _, t) in corr.iter() {
            assert!(t.lo_to_hi > 0.0 && t.hi_to_lo > 0.0);
            assert!(t.total() <= t.anchor * 4.0 + 1e-9);
            assert!(t.total() >= t.anchor / 4.0 - 1e-9);
        }
    }

    #[test]
    fn mean_volume_tracks_paper_parameter() {
        // Intra-group per-direction mean should be ~10 MB per tick.
        let vms = population(400, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let mut corr = DataCorrelation::new(DataCorrelationConfig {
            cross_links_per_vm: 0,
        });
        corr.connect_arrivals(&vms, &vms, &mut rng);
        let mean: f64 =
            corr.iter().map(|(_, _, t)| t.lo_to_hi).sum::<f64>() / corr.pair_count() as f64;
        // Log-normal with log-variance up to 4 has heavy tails: accept a
        // generous band around 10.
        assert!(
            (4.0..25.0).contains(&mean),
            "mean per-direction rate {mean}"
        );
    }

    #[test]
    fn attraction_matrix_matches_per_pair_calls() {
        let (corr, vms) = connected(3, 3, 11);
        let ids: Vec<VmId> = vms.iter().map(|v| v.id()).collect();
        let n = ids.len();
        let matrix = corr.directed_attraction_matrix(&ids);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let direct = corr.directed_attraction(ids[i], ids[j]);
                assert!(
                    (matrix[i * n + j] - direct).abs() < 1e-12,
                    "mismatch at ({i},{j}): {} vs {direct}",
                    matrix[i * n + j]
                );
            }
        }
    }

    #[test]
    fn attraction_matrix_empty_for_no_pairs() {
        let corr = DataCorrelation::new(DataCorrelationConfig::default());
        let matrix = corr.directed_attraction_matrix(&[VmId(0), VmId(1)]);
        assert!(matrix.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn config_default_matches_paper() {
        assert_eq!(INTRA_GROUP_MEAN_MB, 10.0);
        assert_eq!(VARIANCE_RANGE, (1.0, 4.0));
    }
}
