//! Cheap, stable content fingerprinting (FNV-1a, 64-bit).
//!
//! The sweep engine content-addresses simulation results by
//! configuration: a run is keyed by the hash of everything that can
//! change its outcome (config, app, design, scale, code version). The
//! standard-library `DefaultHasher` is explicitly *not* guaranteed
//! stable across Rust releases, so cached results keyed with it would
//! silently go stale (or worse, collide) on a toolchain upgrade. FNV-1a
//! is tiny, fully specified, and byte-for-byte reproducible everywhere.
//!
//! This is a *fingerprint*, not a cryptographic hash: collisions are
//! astronomically unlikely for the handful of sweep points a repro run
//! generates, but nothing here defends against adversarial inputs.
//!
//! # Example
//!
//! ```
//! use ndpb_sim::fingerprint::Fnv1a64;
//!
//! let mut h = Fnv1a64::new();
//! h.write_str("table1");
//! h.write_u64(0x5EED);
//! let a = h.finish();
//! // Identical input streams fingerprint identically…
//! let mut h2 = Fnv1a64::new();
//! h2.write_str("table1");
//! h2.write_u64(0x5EED);
//! assert_eq!(a, h2.finish());
//! // …and any difference changes the digest.
//! let mut h3 = Fnv1a64::new();
//! h3.write_str("table1");
//! h3.write_u64(0x5EEE);
//! assert_ne!(a, h3.finish());
//! ```

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64 {
    state: u64,
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a64 { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a string's UTF-8 bytes plus a terminator, so
    /// `("ab","c")` and `("a","bc")` fingerprint differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Classic reference vectors for 64-bit FNV-1a.
        let fnv = |s: &str| {
            let mut h = Fnv1a64::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(fnv(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn str_framing_prevents_concatenation_collisions() {
        let mut a = Fnv1a64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn u64_writes_are_order_sensitive() {
        let mut a = Fnv1a64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv1a64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(Fnv1a64::default().finish(), Fnv1a64::new().finish());
    }
}
