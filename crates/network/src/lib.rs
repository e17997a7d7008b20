//! Wide-area network substrate: Section III of the paper.
//!
//! * [`topology`] — sites, haversine distances, full-mesh backbone
//!   (100 Gb/s) with per-DC local links (10 Gb/s);
//! * [`ber`] — the discrete bit-error-rate distribution of the global
//!   links;
//! * [`latency`] — Equations 1–4 and Algorithm 1 (BER-degraded stepped
//!   transmission);
//! * [`traffic`] — DC-to-DC volume matrices;
//! * [`migration`] — latency-constrained migration planning (the hard QoS
//!   bound of Algorithm 2);
//! * [`response`] — per-slot response-time evaluation (Fig. 3's metric).
//!
//! # Examples
//!
//! ```
//! use geoplace_network::prelude::*;
//! use geoplace_types::{units::Megabytes, DcId};
//! use rand::SeedableRng;
//!
//! let model = LatencyModel::new(Topology::paper_default()?, BerDistribution::paper_default());
//! let mut traffic = TrafficMatrix::new(3);
//! traffic.add(DcId(0), DcId(2), Megabytes(25_000.0));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let response = evaluate_slot(&model, &traffic, &mut rng);
//! assert!(response.worst().0 > 0.0);
//! # Ok::<(), geoplace_types::Error>(())
//! ```

pub mod ber;
pub mod latency;
pub mod migration;
pub mod response;
pub mod topology;
pub mod traffic;

pub use ber::BerDistribution;
pub use latency::LatencyModel;
pub use migration::{latency_constraint_for_qos, Migration, MigrationPlan};
pub use response::{evaluate_slot, SlotResponse};
pub use topology::{paper_sites, DcSite, Topology};
pub use traffic::TrafficMatrix;

/// Convenient bulk import.
pub mod prelude {
    pub use crate::ber::BerDistribution;
    pub use crate::latency::LatencyModel;
    pub use crate::migration::{latency_constraint_for_qos, Migration, MigrationPlan};
    pub use crate::response::{evaluate_slot, SlotResponse};
    pub use crate::topology::{paper_sites, DcSite, Topology};
    pub use crate::traffic::TrafficMatrix;
}
