//! Scenario library: composable world generation for the reproduction.
//!
//! The paper evaluates one world — Table I's three sites under a
//! stationary diurnal workload. This crate turns "a world" into data:
//!
//! * [`world::WorldSpec`] — a declarative delta over a base
//!   [`ScenarioConfig`](geoplace_dcsim::config::ScenarioConfig):
//!   arrival/lifetime rescaling, heterogeneous fleet mixes, weekly rate
//!   seasonality, fleet-shaped [`world::WorldEvent`]s (flash crowds,
//!   cohorts) sized against the base population, and engine
//!   [`EngineEvent`](geoplace_dcsim::events::EngineEvent)s that land on
//!   the configuration's event timeline unchanged;
//! * [`presets`] — the named registry (`paper`, `flash_crowd`,
//!   `weekly_seasonal`, `hetero_fleet`, `churn_storm`, `green_drought`,
//!   `dc_outage`, `trace_replay`) every repro binary exposes via
//!   `--scenario NAME`, and the row set of the `scenario_matrix`
//!   golden-regression gate.
//!
//! Lowering is pure and scale-free, so one preset definition covers the
//! bench, repro, paper and stress fleets alike.
//!
//! # Examples
//!
//! ```
//! use geoplace_dcsim::config::ScenarioConfig;
//! use geoplace_scenarios::presets;
//!
//! let spec = presets::named("flash_crowd").unwrap();
//! let config = spec.apply(ScenarioConfig::scaled(42));
//! assert!(config.validate().is_ok());
//! assert!(!config.fleet.arrivals.bursts.is_empty());
//! ```

pub mod presets;
pub mod world;

pub use presets::{named, names, registry};
pub use world::{WorldEvent, WorldSpec};
