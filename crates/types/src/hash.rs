//! The workspace's deterministic hashes — one copy of each.
//!
//! * [`Fnv64`] — FNV-1a over bytes: report digests, config fingerprints
//!   and the per-slot engine state hash;
//! * [`splitmix64`] / [`hash_u64`] / [`hash_to_unit`] — the SplitMix64
//!   avalanche behind every procedural value that must be a pure
//!   function of `(seed, index)`: trace noise, PV cloud cover, the
//!   correlation baseline's pair sample and the force layout's scatter
//!   and tie-break directions.
//!
//! All of them are dependency-free and stable across platforms and Rust
//! versions — unlike `DefaultHasher`, whose output is explicitly not
//! guaranteed stable, which would silently invalidate committed goldens.
//! Changing any constant here moves every golden digest.

/// FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Starts a hash at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a `u32` (little-endian) into the hash.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 avalanche of one word.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes `(seed, n)` to a `u64`: [`splitmix64`] of `seed · 0x9E37_79B9 + n`.
pub fn hash_u64(seed: u64, n: u64) -> u64 {
    splitmix64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(n))
}

/// Hashes `(seed, n)` to a uniform float in `[0, 1)`: the top 53 bits of
/// [`hash_u64`].
pub fn hash_to_unit(seed: u64, n: u64) -> f64 {
    (hash_u64(seed, n) >> 11) as f64 / (1u64 << 53) as f64
}
