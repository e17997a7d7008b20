//! Geo-distributed data-center simulator.
//!
//! Combines the workload, energy and network substrates into the paper's
//! evaluation platform:
//!
//! * [`power`] — Xeon E5410 DVFS power model (ref \[19\]);
//! * [`pue`] — free-cooling time-varying PUE (ref \[20\]);
//! * [`config`] / [`dc`] — Table I scenario description and per-DC runtime;
//! * [`decision`] / [`snapshot`] / [`policy`] — the contract between the
//!   engine and placement policies;
//! * [`engine`] — the hourly-slot / 5 s-tick simulation loop;
//! * [`stepper`] — the explicit slot lifecycle (`advance_world` →
//!   `observe` → `apply`) the engine loop and online drivers both pump;
//! * [`checkpoint`] — versioned checkpoint/resume: policy-inclusive
//!   snapshots, `.gpck` file I/O, and the checkpoint-every-N batch loop;
//! * [`metrics`] — reports, totals, histograms (raw data of Figs. 1–6);
//! * [`testkit`] — shared pathological policy stubs for engine-level
//!   test suites.
//!
//! # Examples
//!
//! ```
//! use geoplace_dcsim::config::ScenarioConfig;
//! use geoplace_dcsim::decision::{PlacementDecision, ServerAssignment};
//! use geoplace_dcsim::engine::{Scenario, Simulator};
//! use geoplace_dcsim::policy::GlobalPolicy;
//! use geoplace_dcsim::power::FreqLevel;
//! use geoplace_dcsim::snapshot::SystemSnapshot;
//! use geoplace_types::DcId;
//!
//! /// Pack 4 VMs per server on the first DC (toy policy).
//! struct Toy;
//! impl GlobalPolicy for Toy {
//!     fn name(&self) -> &'static str { "toy" }
//!     fn decide(&mut self, snap: &SystemSnapshot<'_>) -> PlacementDecision {
//!         let mut d = PlacementDecision::new(snap.dc_count());
//!         for (i, chunk) in snap.vm_ids().chunks(4).enumerate() {
//!             d.push(DcId(0), ServerAssignment {
//!                 server: i as u32,
//!                 freq: FreqLevel(1),
//!                 vms: chunk.to_vec(),
//!             });
//!         }
//!         d
//!     }
//! }
//!
//! let mut config = ScenarioConfig::scaled(3);
//! config.horizon_slots = 2;
//! let report = Simulator::new(Scenario::build(&config)?).run(&mut Toy);
//! assert_eq!(report.hourly.len(), 2);
//! # Ok::<(), geoplace_types::Error>(())
//! ```

pub mod checkpoint;
pub mod config;
pub mod dc;
pub mod decision;
pub mod engine;
pub mod events;
pub mod metrics;
pub mod policy;
pub mod power;
pub mod pue;
pub mod snapshot;
pub mod stepper;
pub mod testkit;

pub use config::{DcConfig, ScenarioConfig};
pub use dc::DataCenter;
pub use decision::{PlacementDecision, ServerAssignment};
pub use engine::{Scenario, Simulator};
pub use events::{EngineEvent, EventKind, EventTimeline};
pub use metrics::{Histogram, HourlyRecord, SimulationReport, Totals};
pub use policy::GlobalPolicy;
pub use power::{FreqLevel, OperatingPoint, ServerPowerModel};
pub use pue::{PueModel, SiteClimate};
pub use snapshot::{DcInfo, SystemSnapshot};
pub use stepper::{SlotMetrics, SlotStepper};
