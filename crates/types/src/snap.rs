//! Versioned binary checkpoint codec — the one serialization surface of
//! the workspace.
//!
//! The build environment vendors `serde` as a derive-only stub, so the
//! codec is hand-rolled in the same spirit as the JSON layer in the
//! bench crate: a tiny, dependency-free, fully deterministic format.
//! A checkpoint file is a [`Checkpoint`] container:
//!
//! | field              | type          | meaning                           |
//! |--------------------|---------------|-----------------------------------|
//! | magic              | `[u8; 4]`     | `b"GPCK"`                         |
//! | format version     | `u32` LE      | [`FORMAT_VERSION`]                |
//! | config fingerprint | `u64` LE      | FNV-1a of the scenario config     |
//! | slot               | `u32` LE      | boundary the state was frozen at  |
//! | state hash         | `u64` LE      | per-slot engine state hash        |
//! | section count      | `u32` LE      | number of sections that follow    |
//! | sections           | —             | name, payload length, payload     |
//!
//! Each section is `name` (`u32` length + UTF-8 bytes), `u32` payload
//! length, payload bytes. Subsystems own their section payloads and
//! encode them with [`SnapWriter`]/[`SnapReader`]; the container treats
//! payloads as opaque, which is what makes save → load → save
//! byte-identical by construction.
//!
//! The reader is strict: every decode error is [`Error::Snapshot`] and
//! names the section being read plus the byte offset where decoding
//! stopped (`"header"` for the container framing itself). Unknown
//! format versions are rejected with the version named — there is no
//! silent best-effort parse.
//!
//! # Examples
//!
//! ```
//! use geoplace_types::snap::{Checkpoint, SnapWriter, FORMAT_VERSION};
//!
//! let mut w = SnapWriter::new();
//! w.write_u32(7);
//! w.write_f64(0.25);
//! let mut ck = Checkpoint::new(0xABCD, 3, 0x1234);
//! ck.add_section("demo", w.into_bytes());
//! let bytes = ck.encode();
//! let back = Checkpoint::decode(&bytes).unwrap();
//! assert_eq!(back.slot, 3);
//! let mut r = back.section("demo").unwrap();
//! assert_eq!(r.read_u32().unwrap(), 7);
//! assert_eq!(r.read_f64().unwrap(), 0.25);
//! r.finish().unwrap();
//! assert_eq!(back.encode(), bytes); // load → save is byte-identical
//! ```

use crate::error::{Error, Result};
use crate::hash::Fnv64;

/// First four bytes of every checkpoint file.
pub const MAGIC: [u8; 4] = *b"GPCK";

/// Current checkpoint format version. Bump on any layout change; old
/// versions must either be migrated on load or rejected with the
/// version named (see README § Checkpoint & resume).
pub const FORMAT_VERSION: u32 = 1;

/// Hard cap on the number of sections a container may declare — far
/// above real use, small enough that a corrupt count cannot drive a
/// pathological allocation.
const MAX_SECTIONS: u32 = 1024;

/// Hard cap on a section name length in bytes.
const MAX_NAME_LEN: u32 = 64;

/// Fingerprints an arbitrary string (FNV-1a). Scenario configs derive
/// `Debug`, so `fingerprint_str(&format!("{config:?}"))` is a stable,
/// dependency-free config fingerprint.
pub fn fingerprint_str(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(s.as_bytes());
    h.finish()
}

/// Append-only little-endian byte sink for one section payload.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts an empty payload.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Consumes the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32`, little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` by its exact bit pattern — NaNs and signed zeros
    /// round-trip unchanged, which restore-equality depends on.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Strict little-endian reader over one section payload. Every error it
/// produces names the section and the byte offset (relative to the
/// section start) where decoding stopped.
#[derive(Debug)]
pub struct SnapReader<'a> {
    section: &'a str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps `buf` as the payload of section `section`.
    pub fn new(section: &'a str, buf: &'a [u8]) -> Self {
        SnapReader {
            section,
            buf,
            pos: 0,
        }
    }

    /// Current byte offset into the section.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn err(&self, reason: impl Into<String>) -> Error {
        Error::snapshot(self.section, self.pos, reason)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "unexpected end of section while reading {what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a bool, rejecting any byte other than 0 or 1.
    pub fn read_bool(&mut self) -> Result<bool> {
        let at = self.pos;
        match self.take(1, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::snapshot(
                self.section,
                at,
                format!("invalid bool byte {other:#04x}"),
            )),
        }
    }

    /// Reads a `u32`, little-endian.
    pub fn read_u32(&mut self) -> Result<u32> {
        let bytes = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads a `u64`, little-endian.
    pub fn read_u64(&mut self) -> Result<u64> {
        let bytes = self.take(8, "u64")?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn read_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String> {
        let at = self.pos;
        let len = self.read_u32()? as usize;
        let bytes = self.take(len, "string bytes")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::snapshot(self.section, at, "string is not valid UTF-8"))
    }

    /// Asserts the section was consumed exactly — trailing bytes mean a
    /// writer/reader mismatch and are an error, not silent slack.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.err(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Types whose mutable run state can be frozen into a section payload
/// and later restored in place onto an identically configured instance.
///
/// The contract: `restore_state` is called on an object freshly rebuilt
/// from the same configuration the saved object had, and after it
/// returns the object behaves bit-identically to the saved one.
/// Pure-function-of-config state (samplers, schedules, layouts) is the
/// rebuild's job and is deliberately not serialized.
pub trait Snapshot {
    /// Appends this object's mutable state to `w`.
    fn save_state(&self, w: &mut SnapWriter);

    /// Overwrites this object's mutable state from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] naming the section and byte offset on
    /// any malformed or truncated payload.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<()>;
}

/// The checkpoint container: header metadata plus named opaque section
/// payloads, in insertion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// FNV-1a fingerprint of the scenario configuration the state
    /// belongs to; restore refuses a mismatching world.
    pub config_fingerprint: u64,
    /// The slot boundary the state was frozen at (next slot to run).
    pub slot: u32,
    /// The engine state hash at that boundary, for convergence checks.
    pub state_hash: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// Starts an empty container with header metadata.
    pub fn new(config_fingerprint: u64, slot: u32, state_hash: u64) -> Self {
        Checkpoint {
            config_fingerprint,
            slot,
            state_hash,
            sections: Vec::new(),
        }
    }

    /// Appends a named section. Names must be unique within a container.
    pub fn add_section(&mut self, name: &str, payload: Vec<u8>) {
        debug_assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate checkpoint section {name:?}"
        );
        self.sections.push((name.to_string(), payload));
    }

    /// Opens a section for strict reading.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] when the section is absent.
    pub fn section<'a>(&'a self, name: &'a str) -> Result<SnapReader<'a>> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(n, payload)| SnapReader::new(n, payload))
            .ok_or_else(|| Error::snapshot(name, 0, "section missing from checkpoint"))
    }

    /// All sections in file order, for inspection tooling.
    pub fn sections(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.sections
            .iter()
            .map(|(n, payload)| (n.as_str(), payload.as_slice()))
    }

    /// Serializes the container. Encoding is a pure function of the
    /// contents, so decode → encode reproduces the input byte-for-byte.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.config_fingerprint.to_le_bytes());
        buf.extend_from_slice(&self.slot.to_le_bytes());
        buf.extend_from_slice(&self.state_hash.to_le_bytes());
        buf.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(payload);
        }
        buf
    }

    /// Parses a container, validating magic, version, and every length.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] with section `"header"` and the
    /// absolute byte offset on any framing violation: bad magic, an
    /// unsupported format version (named in the message), truncated or
    /// oversized lengths, duplicate section names, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = SnapReader::new("header", bytes);
        let magic = r.take(4, "magic")?;
        if magic != MAGIC {
            return Err(Error::snapshot(
                "header",
                0,
                format!("bad magic {magic:?}, expected {MAGIC:?} (\"GPCK\")"),
            ));
        }
        let at = r.offset();
        let version = r.read_u32()?;
        if version != FORMAT_VERSION {
            return Err(Error::snapshot(
                "header",
                at,
                format!("unsupported format version {version} (this build reads {FORMAT_VERSION})"),
            ));
        }
        let config_fingerprint = r.read_u64()?;
        let slot = r.read_u32()?;
        let state_hash = r.read_u64()?;
        let at = r.offset();
        let count = r.read_u32()?;
        if count > MAX_SECTIONS {
            return Err(Error::snapshot(
                "header",
                at,
                format!("section count {count} exceeds the cap of {MAX_SECTIONS}"),
            ));
        }
        let mut sections: Vec<(String, Vec<u8>)> = Vec::with_capacity(count as usize);
        for i in 0..count {
            let at = r.offset();
            let name_len = r.read_u32()?;
            if name_len > MAX_NAME_LEN {
                return Err(Error::snapshot(
                    "header",
                    at,
                    format!("section {i} name length {name_len} exceeds the cap of {MAX_NAME_LEN}"),
                ));
            }
            let name_bytes = r.take(name_len as usize, "section name")?;
            let name = std::str::from_utf8(name_bytes).map_err(|_| {
                Error::snapshot("header", at, format!("section {i} name is not valid UTF-8"))
            })?;
            if sections.iter().any(|(n, _)| n == name) {
                return Err(Error::snapshot(
                    "header",
                    at,
                    format!("duplicate section name {name:?}"),
                ));
            }
            let payload_len = r.read_u32()? as usize;
            let payload = r
                .take(payload_len, "section payload")
                .map_err(|_| {
                    Error::snapshot(
                        "header",
                        at,
                        format!(
                            "section {name:?} declares {payload_len} payload bytes but only {} remain",
                            r.remaining()
                        ),
                    )
                })?
                .to_vec();
            sections.push((name.to_string(), payload));
        }
        if r.remaining() != 0 {
            return Err(Error::snapshot(
                "header",
                r.offset(),
                format!("{} trailing bytes after the last section", r.remaining()),
            ));
        }
        Ok(Checkpoint {
            config_fingerprint,
            slot,
            state_hash,
            sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Checkpoint {
        let mut w = SnapWriter::new();
        w.write_u8(9);
        w.write_bool(true);
        w.write_u32(0xDEAD_BEEF);
        w.write_u64(u64::MAX - 1);
        w.write_f64(-0.0);
        w.write_f64(f64::NAN);
        w.write_str("héllo");
        let mut ck = Checkpoint::new(0x1122_3344_5566_7788, 42, 0x99AA);
        ck.add_section("alpha", w.into_bytes());
        ck.add_section("beta", Vec::new());
        ck
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let ck = demo();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back, ck);
        let mut r = back.section("alpha").unwrap();
        assert_eq!(r.read_u8().unwrap(), 9);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 1);
        let z = r.read_f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits());
        assert!(r.read_f64().unwrap().is_nan());
        assert_eq!(r.read_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let bytes = demo().encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap().encode(), bytes);
    }

    #[test]
    fn every_truncation_names_header_and_offset() {
        let bytes = demo().encode();
        for cut in 0..bytes.len() {
            let err = Checkpoint::decode(&bytes[..cut]).unwrap_err();
            match err {
                Error::Snapshot { section, .. } => assert_eq!(section, "header", "cut {cut}"),
                other => panic!("cut {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = demo().encode();
        bytes[0] = b'X';
        let msg = Checkpoint::decode(&bytes).unwrap_err().to_string();
        assert!(msg.contains("bad magic"), "{msg}");
        assert!(msg.contains("byte 0"), "{msg}");
    }

    #[test]
    fn future_version_is_rejected_with_the_version_named() {
        let mut bytes = demo().encode();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let msg = Checkpoint::decode(&bytes).unwrap_err().to_string();
        assert!(msg.contains("version 99"), "{msg}");
        assert!(msg.contains("byte 4"), "{msg}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = demo().encode();
        bytes.push(0);
        let msg = Checkpoint::decode(&bytes).unwrap_err().to_string();
        assert!(msg.contains("trailing bytes"), "{msg}");
    }

    #[test]
    fn oversized_section_payload_is_rejected() {
        let mut ck = Checkpoint::new(1, 2, 3);
        ck.add_section("s", vec![1, 2, 3]);
        let mut bytes = ck.encode();
        let len_pos = bytes.len() - 3 - 4;
        bytes[len_pos..len_pos + 4].copy_from_slice(&1000u32.to_le_bytes());
        let msg = Checkpoint::decode(&bytes).unwrap_err().to_string();
        assert!(msg.contains("declares 1000 payload bytes"), "{msg}");
    }

    #[test]
    fn duplicate_sections_are_rejected() {
        let mut ck = Checkpoint::new(1, 2, 3);
        ck.add_section("s", vec![1]);
        ck.sections.push(("s".into(), vec![2]));
        let msg = Checkpoint::decode(&ck.encode()).unwrap_err().to_string();
        assert!(msg.contains("duplicate section"), "{msg}");
    }

    #[test]
    fn missing_section_lookup_names_the_section() {
        let err = demo().section("gamma").unwrap_err().to_string();
        assert!(err.contains("\"gamma\""), "{err}");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn reader_rejects_invalid_bool_and_bad_utf8() {
        let mut r = SnapReader::new("t", &[7]);
        let msg = r.read_bool().unwrap_err().to_string();
        assert!(msg.contains("invalid bool"), "{msg}");
        let mut raw = SnapWriter::new();
        raw.write_u32(2);
        let mut bytes = raw.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = SnapReader::new("t", &bytes);
        assert!(r.read_str().unwrap_err().to_string().contains("UTF-8"));
    }

    #[test]
    fn finish_flags_trailing_payload_bytes() {
        let r = SnapReader::new("t", &[1, 2]);
        let msg = r.finish().unwrap_err().to_string();
        assert!(msg.contains("2 trailing bytes"), "{msg}");
        assert!(msg.contains("\"t\""), "{msg}");
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(fingerprint_str("abc"), fingerprint_str("abc"));
        assert_ne!(fingerprint_str("abc"), fingerprint_str("abd"));
    }
}
