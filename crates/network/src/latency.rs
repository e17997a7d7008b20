//! The paper's latency model: Equations 1–4 and Algorithm 1.
//!
//! For a destination DC `j` receiving data from every other DC `i`, the
//! total (worst-case) latency is
//!
//! ```text
//! L_t^j = max_i (L_l^i + L_g^{i,j}) + L_l^j              (Eq. 1)
//! L_l^i = Vol^{i,j} / B_L^i                              (Eq. 2)
//! L_l^j = Σ_i Vol^{i,j} / B_L^j                          (Eq. 3)
//! L_g^{i,j} = Dist^{i,j} / S_l + L_e^{i,j}               (Eq. 4)
//! ```
//!
//! and `L_e` comes from Algorithm 1: transmission proceeds in one-second
//! steps, each with a freshly drawn BER that reduces the effective
//! bandwidth; the remainder in the final step contributes fractionally.

use crate::ber::BerDistribution;
use crate::topology::Topology;
use crate::traffic::TrafficMatrix;
use geoplace_types::units::{Megabytes, Seconds};
use geoplace_types::DcId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Speed of light in vacuum, km/s — the paper's `S_l`.
pub const SPEED_OF_LIGHT_KM_S: f64 = 299_792.458;

/// The assembled latency model over a topology.
///
/// # Examples
///
/// ```
/// use geoplace_network::latency::LatencyModel;
/// use geoplace_network::ber::BerDistribution;
/// use geoplace_network::topology::Topology;
/// use geoplace_network::traffic::TrafficMatrix;
/// use geoplace_types::{units::Megabytes, DcId};
/// use rand::SeedableRng;
///
/// let model = LatencyModel::new(Topology::paper_default()?, BerDistribution::error_free());
/// let mut traffic = TrafficMatrix::new(3);
/// traffic.add(DcId(0), DcId(1), Megabytes(12_500.0)); // 100 Gbit
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let total = model.total_latency(DcId(1), &traffic, &mut rng);
/// assert!(total.0 > 0.0);
/// # Ok::<(), geoplace_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    topology: Topology,
    ber: BerDistribution,
}

impl LatencyModel {
    /// Creates the model over a topology whose backbone links draw their
    /// BER from `ber`.
    pub fn new(topology: Topology, ber: BerDistribution) -> Self {
        LatencyModel { topology, ber }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Eq. 2 — local latency of source DC `i` pushing `volume` through its
    /// own local link.
    pub fn source_local_latency(&self, dc: DcId, volume: Megabytes) -> Seconds {
        self.topology.local_bandwidth(dc).transfer_time_mb(volume)
    }

    /// Eq. 3 — local latency of destination DC `j` absorbing the total
    /// volume collected from all other DCs.
    pub fn destination_local_latency(&self, dc: DcId, total_incoming: Megabytes) -> Seconds {
        self.topology
            .local_bandwidth(dc)
            .transfer_time_mb(total_incoming)
    }

    /// Propagation delay between two DCs (first term of Eq. 4).
    pub fn propagation(&self, from: DcId, to: DcId) -> Seconds {
        Seconds(self.topology.distance_km(from, to) / SPEED_OF_LIGHT_KM_S)
    }

    /// Algorithm 1 — data latency `L_e` of pushing `volume` across the
    /// backbone when every one-second step draws a fresh BER and moves
    /// at the paper's effective bandwidth `B_e(t) = (1 − BER(t)) · B_bb`.
    pub fn global_data_latency<R: Rng + ?Sized>(&self, volume: Megabytes, rng: &mut R) -> Seconds {
        let mut remaining = volume;
        let mut latency = Seconds::ZERO;
        if remaining.0 <= 0.0 {
            return latency;
        }
        loop {
            let ber = self.ber.sample(rng);
            let effective = self.topology.backbone_bandwidth() * (1.0 - ber);
            // Volume movable in one one-second step.
            let step_capacity = effective.megabytes_per_second();
            if step_capacity.0 <= 0.0 {
                // Fully degraded step: a second passes, nothing moves.
                latency += Seconds(1.0);
                continue;
            }
            if remaining.0 <= step_capacity.0 {
                latency += Seconds(remaining.0 / step_capacity.0);
                return latency;
            }
            remaining -= step_capacity;
            latency += Seconds(1.0);
        }
    }

    /// Eq. 4 — global latency: propagation plus BER-degraded data latency.
    pub fn global_latency<R: Rng + ?Sized>(
        &self,
        from: DcId,
        to: DcId,
        volume: Megabytes,
        rng: &mut R,
    ) -> Seconds {
        self.propagation(from, to) + self.global_data_latency(volume, rng)
    }

    /// Eq. 1 — total worst-case latency for destination DC `dest` given a
    /// slot's traffic matrix: the slowest source chain (its local link plus
    /// its global link) plus the destination's own local drain.
    pub fn total_latency<R: Rng + ?Sized>(
        &self,
        dest: DcId,
        traffic: &TrafficMatrix,
        rng: &mut R,
    ) -> Seconds {
        let mut worst_chain = Seconds::ZERO;
        for src in self.topology.dc_ids() {
            if src == dest {
                continue;
            }
            let volume = traffic.volume(src, dest);
            if volume.0 <= 0.0 {
                continue;
            }
            let chain = self.source_local_latency(src, volume)
                + self.global_latency(src, dest, volume, rng);
            worst_chain = worst_chain.max(chain);
        }
        worst_chain + self.destination_local_latency(dest, traffic.incoming(dest))
    }

    /// Response-time variant of Eq. 1: like [`LatencyModel::total_latency`]
    /// but the destination drain also carries the DC's *intra-DC* volume
    /// (the matrix diagonal) — co-located VM pairs still exchange data
    /// through the DC's local links to the network-attached storage
    /// (Sect. III), so consolidating every VM into one DC concentrates the
    /// whole fleet's traffic onto a single 10 Gb/s local link.
    pub fn response_latency<R: Rng + ?Sized>(
        &self,
        dest: DcId,
        traffic: &TrafficMatrix,
        rng: &mut R,
    ) -> Seconds {
        let mut worst_chain = Seconds::ZERO;
        for src in self.topology.dc_ids() {
            if src == dest {
                continue;
            }
            let volume = traffic.volume(src, dest);
            if volume.0 <= 0.0 {
                continue;
            }
            let chain = self.source_local_latency(src, volume)
                + self.global_latency(src, dest, volume, rng);
            worst_chain = worst_chain.max(chain);
        }
        let drain = traffic.incoming(dest) + traffic.volume(dest, dest);
        worst_chain + self.destination_local_latency(dest, drain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn error_free_model() -> LatencyModel {
        LatencyModel::new(
            Topology::paper_default().unwrap(),
            BerDistribution::error_free(),
        )
    }

    fn paper_model() -> LatencyModel {
        LatencyModel::new(
            Topology::paper_default().unwrap(),
            BerDistribution::paper_default(),
        )
    }

    #[test]
    fn local_latency_matches_closed_form() {
        let m = error_free_model();
        // 10 Gb/s local link: 12,500 MB = 100 Gbit → 10 s.
        let t = m.source_local_latency(DcId(0), Megabytes(12_500.0));
        assert!((t.0 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn propagation_scales_with_distance() {
        let m = error_free_model();
        let lis_zur = m.propagation(DcId(0), DcId(1));
        let lis_hel = m.propagation(DcId(0), DcId(2));
        assert!(lis_hel.0 > lis_zur.0);
        // ~1716 km at light speed ≈ 5.7 ms.
        assert!((lis_zur.0 - 1716.0 / SPEED_OF_LIGHT_KM_S).abs() < 3e-4);
    }

    #[test]
    fn algorithm1_error_free_equals_closed_form() {
        let m = error_free_model();
        let mut rng = StdRng::seed_from_u64(1);
        // 100 Gb/s backbone → 12.5 GB/s. 50,000 MB → 4 s exactly.
        let t = m.global_data_latency(Megabytes(50_000.0), &mut rng);
        assert!((t.0 - 4.0).abs() < 1e-9);
        // Sub-second volume → fractional step.
        let t = m.global_data_latency(Megabytes(6_250.0), &mut rng);
        assert!((t.0 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn algorithm1_with_errors_is_slower_than_error_free() {
        let clean = error_free_model();
        let noisy = paper_model();
        let vol = Megabytes(500_000.0);
        let mut rng1 = StdRng::seed_from_u64(2);
        let mut rng2 = StdRng::seed_from_u64(2);
        let t_clean = clean.global_data_latency(vol, &mut rng1);
        let t_noisy = noisy.global_data_latency(vol, &mut rng2);
        assert!(
            t_noisy.0 >= t_clean.0,
            "errors cannot speed transmission up"
        );
    }

    #[test]
    fn algorithm1_zero_volume_is_instant() {
        let m = paper_model();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            m.global_data_latency(Megabytes::ZERO, &mut rng),
            Seconds::ZERO
        );
    }

    #[test]
    fn algorithm1_terminates_on_large_volumes() {
        let m = paper_model();
        let mut rng = StdRng::seed_from_u64(4);
        // 1 TB: must terminate in ~80+ steps.
        let t = m.global_data_latency(Megabytes(1_000_000.0), &mut rng);
        assert!(t.0 >= 80.0 && t.0 < 200.0, "latency {t}");
    }

    #[test]
    fn eq1_total_latency_closed_form_error_free() {
        let m = error_free_model();
        let mut traffic = TrafficMatrix::new(3);
        // DC0 → DC1: 12,500 MB (10 s local at 10 Gb/s, 1 s global at
        // 100 Gb/s); DC2 → DC1: 2,500 MB (2 s local, 0.2 s global).
        traffic.add(DcId(0), DcId(1), Megabytes(12_500.0));
        traffic.add(DcId(2), DcId(1), Megabytes(2_500.0));
        let mut rng = StdRng::seed_from_u64(5);
        let total = m.total_latency(DcId(1), &traffic, &mut rng);
        let prop01 = m.propagation(DcId(0), DcId(1)).0;
        // Worst chain: DC0's 10 + 1 + prop; destination drain:
        // 15,000 MB / 10 Gb/s = 12 s.
        let expected = (10.0 + 1.0 + prop01) + 12.0;
        assert!(
            (total.0 - expected).abs() < 1e-6,
            "total {total} vs {expected}"
        );
    }

    #[test]
    fn eq1_with_no_traffic_is_zero() {
        let m = paper_model();
        let traffic = TrafficMatrix::new(3);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(m.total_latency(DcId(0), &traffic, &mut rng), Seconds::ZERO);
    }

    #[test]
    fn intra_dc_traffic_does_not_create_global_latency() {
        let m = error_free_model();
        let mut traffic = TrafficMatrix::new(3);
        traffic.add(DcId(1), DcId(1), Megabytes(1e6));
        let mut rng = StdRng::seed_from_u64(7);
        // Eq. 1 ignores i == j, and incoming() excludes the diagonal.
        assert_eq!(m.total_latency(DcId(1), &traffic, &mut rng), Seconds::ZERO);
    }
}
