//! Shared identifiers, physical units and simulation-time types for the
//! `geoplace` workspace.
//!
//! This crate is dependency-light on purpose: every other crate in the
//! workspace builds on these newtypes, so they must stay small, `Copy`,
//! and unambiguous.
//!
//! # Examples
//!
//! ```
//! use geoplace_types::units::{Joules, Watts};
//! use geoplace_types::time::{Tick, TimeSlot, TICKS_PER_SLOT};
//!
//! let draw = Watts(250.0);
//! let hour: Joules = draw.energy_over_seconds(3600.0);
//! assert!((hour.to_kilowatt_hours().0 - 0.25).abs() < 1e-9);
//! assert_eq!(TimeSlot(2).start_tick(), Tick(2 * TICKS_PER_SLOT as u64));
//! ```

pub mod arena;
pub mod error;
pub mod exec;
pub mod hash;
pub mod ids;
pub mod snap;
pub mod time;
pub mod units;

pub use arena::VmArena;
pub use error::{Error, Result};
pub use exec::{Exec, Parallelism};
pub use ids::{DcId, ServerId, VmId};
pub use time::{Tick, TimeSlot};
pub use units::{Gigabytes, Joules, KilowattHours, Megabytes, Seconds, Watts};
