//! The three state-of-the-art comparators of the paper's evaluation,
//! re-implemented from their published descriptions:
//!
//! * [`PriAwarePolicy`] — cost-aware placement onto the cheapest-grid DCs
//!   (Gu et al., ICNC 2015 — ref \[17\]);
//! * [`EnerAwarePolicy`] — FFD across DCs + correlation-aware
//!   consolidation and DVFS inside each DC (Kim et al., DATE 2013 —
//!   ref \[5\]);
//! * [`NetAwarePolicy`] — communication-component co-location with
//!   relative load balancing (Biran et al., CCGRID 2012 — ref \[6\]).
//!
//! All three implement [`geoplace_dcsim::policy::GlobalPolicy`] and run
//! under the same engine and the same green controller as the Proposed
//! policy — exactly the paper's comparison protocol.
//!
//! # Examples
//!
//! ```
//! use geoplace_baselines::{EnerAwarePolicy, NetAwarePolicy, PriAwarePolicy};
//! use geoplace_dcsim::config::ScenarioConfig;
//! use geoplace_dcsim::engine::{Scenario, Simulator};
//!
//! let mut config = ScenarioConfig::scaled(2);
//! config.horizon_slots = 2;
//! let mut policy = NetAwarePolicy::new();
//! let report = Simulator::new(Scenario::build(&config)?).run(&mut policy);
//! assert_eq!(report.policy, "Net-aware");
//! # Ok::<(), geoplace_types::Error>(())
//! ```

pub mod common;
pub mod ener_aware;
pub mod net_aware;
pub mod pri_aware;

pub use ener_aware::EnerAwarePolicy;
pub use net_aware::NetAwarePolicy;
pub use pri_aware::PriAwarePolicy;
