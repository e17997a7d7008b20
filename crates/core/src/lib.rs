//! The paper's primary contribution: two-phase multi-objective VM
//! placement for green geo-distributed data centers.
//!
//! * [`force`] — force-directed 2D layout from CPU-load repulsion and
//!   data-correlation attraction (Eq. 5–7);
//! * [`caps`] — per-DC capacity caps from battery, PV forecast and grid
//!   price (the operational-cost lever);
//! * [`kmeans`](mod@kmeans) — capacity-capped, warm-started k-means clustering;
//! * [`migrate`] — Algorithm 2, the latency-constrained migration
//!   revision;
//! * [`local`] — correlation-aware FFD server packing + DVFS (after
//!   Kim et al., DATE 2013 — the paper's ref \[5\]);
//! * [`proposed`] — all of it assembled as the [`ProposedPolicy`]
//!   implementing [`geoplace_dcsim::policy::GlobalPolicy`].
//!
//! # Examples
//!
//! ```
//! use geoplace_core::{ProposedConfig, ProposedPolicy};
//! use geoplace_dcsim::config::ScenarioConfig;
//! use geoplace_dcsim::engine::{Scenario, Simulator};
//!
//! let mut config = ScenarioConfig::scaled(1);
//! config.horizon_slots = 2;
//! let scenario = Scenario::build(&config)?;
//! let mut policy = ProposedPolicy::new(ProposedConfig::default());
//! let report = Simulator::new(scenario).run(&mut policy);
//! assert!(report.totals().energy_gj > 0.0);
//! # Ok::<(), geoplace_types::Error>(())
//! ```

pub mod caps;
pub mod force;
pub mod kmeans;
pub mod local;
pub mod migrate;
pub mod proposed;
#[doc(hidden)]
pub mod testutil;

pub use caps::{compute_caps, CapsConfig};
pub use force::{ForceLayout, ForceLayoutConfig, Point};
pub use kmeans::{kmeans, Clustering};
pub use local::{allocate, LocalAllocConfig};
pub use migrate::{revise_migrations, RevisedPlacement, VmPlacementInput};
pub use proposed::{ProposedConfig, ProposedPolicy};
