//! The typed failure surface of the durable store. Corrupt, truncated,
//! or version-skewed files must surface as one of these variants —
//! **never** as a panic — so a recovering engine can refuse bad state
//! and an operator can roll back to an earlier checkpoint.

use std::io;
use std::path::PathBuf;

/// Why a store, container, or log operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io {
        /// What the store was doing.
        context: String,
        /// The OS error.
        source: io::Error,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// File inspected.
        path: PathBuf,
        /// The magic that was expected.
        expected: &'static [u8; 8],
    },
    /// The file's format version is not the one this build reads.
    UnsupportedVersion {
        /// File inspected.
        path: PathBuf,
        /// Version found in the header.
        found: u16,
        /// The version this build reads.
        supported: u16,
    },
    /// The file ended mid-structure (no END section / partial header).
    Truncated {
        /// File inspected.
        path: PathBuf,
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// A section or record failed its CRC (and, for ECC-carrying weight
    /// sections, could not be repaired by the SEC-DED parity either).
    Corrupt {
        /// File inspected.
        path: PathBuf,
        /// Which section/record failed.
        context: String,
    },
    /// The bytes parsed but describe an impossible object (zero-width
    /// codes, mismatched parity length, unknown enum tag, …).
    Malformed {
        /// File inspected.
        path: PathBuf,
        /// What was inconsistent.
        context: String,
    },
    /// `CURRENT` names a checkpoint that does not exist on disk.
    MissingCheckpoint {
        /// The checkpoint version referenced.
        version: u64,
        /// Where it was expected.
        path: PathBuf,
    },
    /// A stored variant could not be rebuilt into a servable snapshot
    /// (geometry mismatch against the synthesis seed, unknown family, …).
    Restore {
        /// The variant id.
        id: String,
        /// What failed.
        context: String,
    },
}

impl StoreError {
    /// Helper: wrap an [`io::Error`] with context.
    pub fn io(context: impl Into<String>, source: io::Error) -> StoreError {
        StoreError::Io {
            context: context.into(),
            source,
        }
    }

    /// A short machine-readable label for the error class (used by
    /// `store_inspect` JSON output and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "io",
            StoreError::BadMagic { .. } => "bad_magic",
            StoreError::UnsupportedVersion { .. } => "unsupported_version",
            StoreError::Truncated { .. } => "truncated",
            StoreError::Corrupt { .. } => "corrupt",
            StoreError::Malformed { .. } => "malformed",
            StoreError::MissingCheckpoint { .. } => "missing_checkpoint",
            StoreError::Restore { .. } => "restore",
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "io error while {context}: {source}"),
            StoreError::BadMagic { path, expected } => write!(
                f,
                "{} is not a store file (expected magic {:?})",
                path.display(),
                String::from_utf8_lossy(&expected[..])
            ),
            StoreError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "{}: format version {found} is not the supported version {supported}",
                path.display()
            ),
            StoreError::Truncated { path, context } => {
                write!(f, "{} is truncated ({context})", path.display())
            }
            StoreError::Corrupt { path, context } => {
                write!(f, "{} is corrupt: {context}", path.display())
            }
            StoreError::Malformed { path, context } => {
                write!(f, "{} is malformed: {context}", path.display())
            }
            StoreError::MissingCheckpoint { version, path } => write!(
                f,
                "checkpoint {version} referenced by CURRENT is missing at {}",
                path.display()
            ),
            StoreError::Restore { id, context } => {
                write!(f, "cannot restore variant {id}: {context}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
