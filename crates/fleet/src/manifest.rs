//! The fleet snapshot manifest: one small CRC-framed binary file
//! (`fleet.manifest`) naming every tenant snapshot in the directory.
//!
//! Framing follows the snapshot codec's rules, and decoding uses its
//! bounds-checked [`Reader`]: magic, version, little-endian integers,
//! length-prefixed strings under the codec's length bound, and a
//! trailing CRC-32 over everything before it. Decoding is
//! validation-first — truncated, bit-flipped, or mis-versioned manifests
//! are [`CoreError::InvalidConfig`] before any entry is trusted.
//!
//! Each entry records the CRC of the tenant's snapshot *file bytes*, so
//! resume can detect a corrupted or swapped per-tenant snapshot without
//! decoding it — the quarantine path's first line of defense.

use std::path::Path;

use freshen_core::error::{CoreError, Result};
use freshen_serve::snapshot::{crc32, write_atomic, Reader};

/// Magic bytes for the manifest file.
pub const MAGIC: [u8; 4] = *b"FRSM";
/// Manifest format version.
pub const VERSION: u32 = 1;

/// One tenant's snapshot as recorded at the last fleet checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Tenant id.
    pub id: String,
    /// Snapshot file name, relative to the manifest's directory.
    pub file: String,
    /// CRC-32 of the snapshot file's bytes.
    pub crc: u32,
    /// Engine epoch the snapshot was taken at.
    pub epoch: u64,
}

/// The fleet checkpoint manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Fleet rounds completed when this manifest was written.
    pub round: u64,
    /// Per-tenant snapshot records, in fleet (spec) order.
    pub entries: Vec<ManifestEntry>,
}

fn corrupt(what: &str) -> CoreError {
    CoreError::InvalidConfig(format!("fleet manifest: {what}"))
}

impl Manifest {
    /// Serialize: header, round, entries, trailing CRC.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.entries.len() * 64);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for entry in &self.entries {
            for s in [&entry.id, &entry.file] {
                out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            out.extend_from_slice(&entry.crc.to_le_bytes());
            out.extend_from_slice(&entry.epoch.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Validate and decode.
    pub fn decode(bytes: &[u8]) -> Result<Manifest> {
        if bytes.len() < MAGIC.len() + 4 + 4 {
            return Err(corrupt("truncated"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().unwrap());
        if crc32(body) != stored {
            return Err(corrupt("CRC mismatch"));
        }
        let mut dec = Reader::new("fleet manifest", body);
        if dec.take(4)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = dec.u32()?;
        if version != VERSION {
            return Err(corrupt(&format!(
                "unsupported version {version} (want {VERSION})"
            )));
        }
        let round = dec.u64()?;
        let count = dec.usize()?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let id = dec.str()?;
            let file = dec.str()?;
            let crc = dec.u32()?;
            let epoch = dec.u64()?;
            entries.push(ManifestEntry {
                id,
                file,
                crc,
                epoch,
            });
        }
        dec.finish()?;
        Ok(Manifest { round, entries })
    }

    /// Look up a tenant's entry by id.
    pub fn entry(&self, id: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Encode and write the manifest with [`write_atomic`].
    pub fn write_atomic(&self, path: &Path) -> Result<()> {
        write_atomic(path, &self.encode())
    }

    /// Read and decode a manifest file.
    pub fn read(path: &Path) -> Result<Manifest> {
        let bytes = std::fs::read(path).map_err(|e| {
            CoreError::InvalidConfig(format!(
                "cannot read fleet manifest {}: {e}",
                path.display()
            ))
        })?;
        Manifest::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            round: 5,
            entries: vec![
                ManifestEntry {
                    id: "acme".into(),
                    file: "acme.snapshot".into(),
                    crc: 0xDEADBEEF,
                    epoch: 10,
                },
                ManifestEntry {
                    id: "bolt".into(),
                    file: "bolt.snapshot".into(),
                    crc: 7,
                    epoch: 3,
                },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let m = sample();
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(m, decoded);
        assert_eq!(decoded.entry("bolt").unwrap().epoch, 3);
        assert!(decoded.entry("nope").is_none());
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                Manifest::decode(&bad).is_err(),
                "bit flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn truncation_and_version_skew_are_clean_errors() {
        let bytes = sample().encode();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(Manifest::decode(&bytes[..cut]).is_err());
        }
        let mut wrong_version = sample().encode();
        wrong_version[4] = 9;
        let body_len = wrong_version.len() - 4;
        let crc = crc32(&wrong_version[..body_len]);
        wrong_version[body_len..].copy_from_slice(&crc.to_le_bytes());
        let err = Manifest::decode(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn writes_atomically_and_reads_back() {
        let dir = std::env::temp_dir().join("freshen-fleet-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.manifest");
        let m = sample();
        m.write_atomic(&path).unwrap();
        assert_eq!(Manifest::read(&path).unwrap(), m);
        assert!(!dir.join("fleet.manifest.tmp").exists());
    }
}
