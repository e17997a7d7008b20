//! VM workload substrate for the geoplace simulator.
//!
//! Provides everything the placement controllers observe about the VMs:
//!
//! * [`distributions`] — Poisson / exponential / log-normal / weighted
//!   samplers (built on [`rand`], no external distribution crate);
//! * [`trace`] — deterministic procedural CPU-utilization traces at the
//!   paper's 5 s sampling cadence, one recorded day extended to a week;
//! * [`vm`] / [`arrivals`] / [`fleet`] — VM descriptors, Poisson group
//!   arrivals with exponential lifetimes, and the evolving population;
//! * [`window`] — dense per-slot utilization windows;
//! * [`cpucorr`] — CPU-load correlation (worst-case peak coincidence,
//!   plus Pearson for comparison), dense or sparse top-k;
//! * [`datacorr`] — bidirectional, runtime-varying data-exchange volumes
//!   (log-normal, mean 10 MB, log-variance uniform in [1,4]);
//! * [`graph`] — arena-indexed CSR adjacency over the traffic pairs;
//! * [`sparsity`] — the dense↔sparse crossover and approximation knobs.
//!
//! # Examples
//!
//! ```
//! use geoplace_workload::fleet::{FleetConfig, VmFleet};
//! use geoplace_types::time::TimeSlot;
//!
//! let mut fleet = VmFleet::new(FleetConfig::default())?;
//! fleet.advance_to(TimeSlot(2));
//! let windows = fleet.windows(TimeSlot(1));
//! let cpu = geoplace_workload::cpucorr::CpuCorrelationMatrix::compute(&windows);
//! assert_eq!(cpu.len(), fleet.active().len());
//! # Ok::<(), geoplace_types::Error>(())
//! ```

pub mod arrivals;
pub mod cpucorr;
pub mod datacorr;
pub mod distributions;
pub mod fleet;
pub mod graph;
pub mod mix;
pub mod source;
pub mod sparsity;
pub mod trace;
pub mod tracefile;
pub mod vm;
pub mod window;

pub use arrivals::{ArrivalConfig, ArrivalProcess, BurstConfig, CohortConfig};
pub use cpucorr::{CorrelationMetric, CpuCorrelationMatrix};
pub use datacorr::{DataCorrelation, DataCorrelationConfig};
pub use fleet::{
    ExternalArrival, ExternalPair, ExternalSlotEvents, FleetConfig, FleetDelta, VmFleet,
};
pub use graph::{TrafficEdge, TrafficGraph};
pub use mix::{FleetMix, VmClass};
pub use source::{DeltaSource, ExternalDeltaSource, SyntheticSource};
pub use sparsity::SparsityConfig;
pub use trace::{TraceKind, TraceParams, VmTrace};
pub use vm::{GroupId, VmSpec};
pub use window::UtilizationWindows;
