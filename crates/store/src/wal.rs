//! Append-only write-ahead log for registry mutations.
//!
//! ```text
//! header "AFWALLOG" · version u16
//! record*  :=  len u32 · crc32 u32 · payload[len]
//!   payload := seq u64 · type u8 · body
//!     type 1 = Register   { id, generation }
//!     type 2 = Scrub      { id, corrected, uncorrectable, rebuilt, generation }
//!     type 3 = Swap       { id, generation }
//!     type 4 = Unregister { id }
//! ```
//!
//! Replay stops at the first record whose framing, checksum, payload,
//! or sequence number is wrong and reports how many trailing bytes it
//! dropped — a torn final record from a crash mid-append disappears
//! cleanly instead of poisoning recovery. Appends re-truncate the file
//! at the replayed high-water mark before writing, so a dropped tail is
//! physically removed the first time the log is reopened for writing.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::bytes::{ByteReader, ByteWriter};
use crate::crc::crc32;
use crate::error::StoreError;

/// WAL file magic bytes.
pub const WAL_MAGIC: &[u8; 8] = b"AFWALLOG";
/// WAL format version written and accepted.
pub const WAL_VERSION: u16 = 1;

const HEADER_LEN: u64 = 10;
/// Sanity bound on a single record payload; real records are < 1 KiB.
const MAX_RECORD_LEN: u32 = 1 << 20;

/// One durable registry mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A variant was (re)registered; its container was written to the
    /// live area immediately before this record.
    Register {
        /// Registry key.
        id: String,
        /// Generation assigned by the registry.
        generation: u64,
    },
    /// A scrub pass ran over a protected variant.
    Scrub {
        /// Registry key.
        id: String,
        /// Words corrected by this pass.
        corrected: u64,
        /// Uncorrectable (double-bit) words detected.
        uncorrectable: u64,
        /// Whether the pass re-encoded storage from the FP32 checkpoint.
        rebuilt: bool,
        /// Generation after any rebuild republish.
        generation: u64,
    },
    /// A hot swap republished the variant's snapshot.
    Swap {
        /// Registry key.
        id: String,
        /// New generation.
        generation: u64,
    },
    /// The variant was removed from the registry.
    Unregister {
        /// Registry key.
        id: String,
    },
}

impl WalOp {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            WalOp::Register { .. } => "register",
            WalOp::Scrub { .. } => "scrub",
            WalOp::Swap { .. } => "swap",
            WalOp::Unregister { .. } => "unregister",
        }
    }

    fn encode(&self, seq: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(seq);
        match self {
            WalOp::Register { id, generation } => {
                w.put_u8(1);
                w.put_str(id);
                w.put_u64(*generation);
            }
            WalOp::Scrub {
                id,
                corrected,
                uncorrectable,
                rebuilt,
                generation,
            } => {
                w.put_u8(2);
                w.put_str(id);
                w.put_u64(*corrected);
                w.put_u64(*uncorrectable);
                w.put_u8(*rebuilt as u8);
                w.put_u64(*generation);
            }
            WalOp::Swap { id, generation } => {
                w.put_u8(3);
                w.put_str(id);
                w.put_u64(*generation);
            }
            WalOp::Unregister { id } => {
                w.put_u8(4);
                w.put_str(id);
            }
        }
        w.into_bytes()
    }

    fn decode(payload: &[u8]) -> Option<(u64, WalOp)> {
        let mut r = ByteReader::new(payload);
        let seq = r.get_u64("wal seq").ok()?;
        let op = match r.get_u8("wal type").ok()? {
            1 => WalOp::Register {
                id: r.get_str("wal id").ok()?,
                generation: r.get_u64("wal generation").ok()?,
            },
            2 => WalOp::Scrub {
                id: r.get_str("wal id").ok()?,
                corrected: r.get_u64("wal corrected").ok()?,
                uncorrectable: r.get_u64("wal uncorrectable").ok()?,
                rebuilt: match r.get_u8("wal rebuilt").ok()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
                generation: r.get_u64("wal generation").ok()?,
            },
            3 => WalOp::Swap {
                id: r.get_str("wal id").ok()?,
                generation: r.get_u64("wal generation").ok()?,
            },
            4 => WalOp::Unregister {
                id: r.get_str("wal id").ok()?,
            },
            _ => return None,
        };
        if !r.is_empty() {
            return None;
        }
        Some((seq, op))
    }
}

/// A replayed record: its sequence number and operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number (starts at 1 in a fresh log).
    pub seq: u64,
    /// The logged mutation.
    pub op: WalOp,
}

/// The result of replaying a WAL file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset of the end of the last intact record — where an
    /// appender must truncate before continuing.
    pub valid_bytes: u64,
    /// Trailing bytes dropped because the final record was torn or
    /// corrupt.
    pub torn_bytes_dropped: u64,
    /// The sequence number the next append should use.
    pub next_seq: u64,
}

/// Replay a WAL file from disk. A missing file is an [`StoreError::Io`]
/// (callers that tolerate a fresh store check existence first); a file
/// with the wrong magic or any version but [`WAL_VERSION`] fails typed. Torn or corrupt
/// tails are dropped, never fatal.
///
/// # Errors
///
/// [`StoreError::Io`], [`StoreError::BadMagic`],
/// [`StoreError::UnsupportedVersion`], or [`StoreError::Truncated`]
/// when even the header is short.
pub fn replay(path: &Path) -> Result<WalReplay, StoreError> {
    let bytes = std::fs::read(path)
        .map_err(|e| StoreError::io(format!("reading WAL {}", path.display()), e))?;
    if bytes.len() < HEADER_LEN as usize {
        return Err(StoreError::Truncated {
            path: path.to_path_buf(),
            context: "WAL header".to_string(),
        });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
            expected: WAL_MAGIC,
        });
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != WAL_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
            supported: WAL_VERSION,
        });
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut next_seq = 1u64;
    while pos < bytes.len() {
        let start = pos;
        if bytes.len() - pos < 8 {
            break; // torn record header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN || (len as usize) > bytes.len() - pos - 8 {
            pos = start;
            break; // torn length or payload
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != stored_crc {
            pos = start;
            break; // corrupt record
        }
        let Some((seq, op)) = WalOp::decode(payload) else {
            pos = start;
            break; // unparseable payload
        };
        if seq != next_seq {
            pos = start;
            break; // sequence discontinuity: treat the rest as torn
        }
        records.push(WalRecord { seq, op });
        next_seq = seq + 1;
        pos += 8 + len as usize;
    }
    Ok(WalReplay {
        records,
        valid_bytes: pos as u64,
        torn_bytes_dropped: (bytes.len() - pos) as u64,
        next_seq,
    })
}

/// When appends reach the disk platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every record — maximum durability, one syscall per
    /// mutation.
    EveryRecord,
    /// `fsync` once every `n` records (and on [`WalWriter::sync`] /
    /// drop-to-checkpoint boundaries). A crash can lose at most the
    /// last `n - 1` acknowledged records; replay still never sees a
    /// half-written one.
    Batch(u32),
}

/// Appender over a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    next_seq: u64,
    records: u64,
    bytes: u64,
    policy: SyncPolicy,
    unsynced: u32,
}

impl WalWriter {
    /// Create a fresh WAL at `path` (truncating any existing file),
    /// write and sync the header.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn create(path: &Path, policy: SyncPolicy) -> Result<WalWriter, StoreError> {
        let ctx = |what: &str| format!("{what} WAL {}", path.display());
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StoreError::io(ctx("creating"), e))?;
        file.write_all(WAL_MAGIC)
            .and_then(|()| file.write_all(&WAL_VERSION.to_le_bytes()))
            .map_err(|e| StoreError::io(ctx("writing header of"), e))?;
        file.sync_all()
            .map_err(|e| StoreError::io(ctx("syncing"), e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            next_seq: 1,
            records: 0,
            bytes: HEADER_LEN,
            policy,
            unsynced: 0,
        })
    }

    /// Resume appending to a replayed WAL: truncate at the replay's
    /// high-water mark (physically dropping any torn tail) and continue
    /// the sequence.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn resume(
        path: &Path,
        policy: SyncPolicy,
        rp: &WalReplay,
    ) -> Result<WalWriter, StoreError> {
        let ctx = |what: &str| format!("{what} WAL {}", path.display());
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(ctx("opening"), e))?;
        file.set_len(rp.valid_bytes)
            .map_err(|e| StoreError::io(ctx("truncating torn tail of"), e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io(ctx("seeking"), e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            next_seq: rp.next_seq,
            records: rp.records.len() as u64,
            bytes: rp.valid_bytes,
            policy,
            unsynced: 0,
        })
    }

    /// Append one record, honoring the sync policy. Returns the
    /// record's sequence number.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        let payload = op.encode(seq);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file
            .write_all(&frame)
            .map_err(|e| StoreError::io(format!("appending to WAL {}", self.path.display()), e))?;
        self.next_seq += 1;
        self.records += 1;
        self.bytes += frame.len() as u64;
        self.unsynced += 1;
        let due = match self.policy {
            SyncPolicy::EveryRecord => true,
            SyncPolicy::Batch(n) => self.unsynced >= n.max(1),
        };
        if due {
            self.sync()?;
        }
        Ok(seq)
    }

    /// Force an `fsync` of everything appended so far.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file
            .sync_all()
            .map_err(|e| StoreError::io(format!("syncing WAL {}", self.path.display()), e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Records durable in this log (replayed plus appended).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes in the log, header included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("af-store-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Register {
                id: "a/b".to_string(),
                generation: 0,
            },
            WalOp::Scrub {
                id: "a/b".to_string(),
                corrected: 3,
                uncorrectable: 1,
                rebuilt: true,
                generation: 1,
            },
            WalOp::Swap {
                id: "a/b".to_string(),
                generation: 2,
            },
            WalOp::Unregister {
                id: "a/b".to_string(),
            },
        ]
    }

    #[test]
    fn append_replay_roundtrips_all_op_types() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, SyncPolicy::EveryRecord).unwrap();
        for op in ops() {
            w.append(&op).unwrap();
        }
        let rp = replay(&path).unwrap();
        assert_eq!(rp.records.len(), 4);
        assert_eq!(rp.torn_bytes_dropped, 0);
        assert_eq!(rp.next_seq, 5);
        assert_eq!(
            rp.records.iter().map(|r| r.op.clone()).collect::<Vec<_>>(),
            ops()
        );
        assert_eq!(
            rp.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_resume() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, SyncPolicy::EveryRecord).unwrap();
        for op in ops().into_iter().take(2) {
            w.append(&op).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Tear the final record at every possible byte boundary.
        let rp_full = replay(&path).unwrap();
        let second_start = {
            // Find where record 2 starts: replay record 1 only.
            let mut probe = full.clone();
            probe.truncate(full.len() - 1);
            std::fs::write(&path, &probe).unwrap();
            let rp = replay(&path).unwrap();
            assert_eq!(rp.records.len(), 1);
            rp.valid_bytes as usize
        };
        for cut in second_start..full.len() - 1 {
            let mut torn = full.clone();
            torn.truncate(cut);
            std::fs::write(&path, &torn).unwrap();
            let rp = replay(&path).unwrap();
            assert_eq!(rp.records.len(), 1, "cut at {cut}");
            assert_eq!(rp.torn_bytes_dropped as usize, cut - second_start);
            assert_eq!(rp.next_seq, 2);
        }
        // Resuming after a tear truncates the file and keeps sequencing.
        let mut torn = full.clone();
        torn.truncate(full.len() - 3);
        std::fs::write(&path, &torn).unwrap();
        let rp = replay(&path).unwrap();
        let mut w = WalWriter::resume(&path, SyncPolicy::EveryRecord, &rp).unwrap();
        let seq = w
            .append(&WalOp::Swap {
                id: "a/b".to_string(),
                generation: 7,
            })
            .unwrap();
        assert_eq!(seq, 2);
        drop(w);
        let rp = replay(&path).unwrap();
        assert_eq!(rp.records.len(), 2);
        assert_eq!(rp.torn_bytes_dropped, 0);
        assert_eq!(
            rp.records[1].op,
            WalOp::Swap {
                id: "a/b".to_string(),
                generation: 7
            }
        );
        assert_eq!(rp_full.records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_in_record_drops_it_and_the_rest() {
        let dir = tmpdir("flip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, SyncPolicy::EveryRecord).unwrap();
        for op in ops() {
            w.append(&op).unwrap();
        }
        drop(w);
        let clean = std::fs::read(&path).unwrap();
        for at in HEADER_LEN as usize..clean.len() {
            let mut bent = clean.clone();
            bent[at] ^= 0x40;
            std::fs::write(&path, &bent).unwrap();
            let rp = replay(&path).unwrap();
            assert!(rp.records.len() < 4, "flip at {at} survived");
            // Everything replayed must be one of the real records.
            for (i, rec) in rp.records.iter().enumerate() {
                assert_eq!(rec.op, ops()[i], "flip at {at} corrupted record {i}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_and_version_fail_typed() {
        let dir = tmpdir("magic");
        let path = dir.join("wal.log");
        std::fs::write(&path, b"NOTAWAL!").unwrap();
        assert_eq!(replay(&path).unwrap_err().kind(), "truncated");
        std::fs::write(&path, b"NOTAWAL!\x01\x00").unwrap();
        assert_eq!(replay(&path).unwrap_err().kind(), "bad_magic");
        let mut hdr = WAL_MAGIC.to_vec();
        hdr.extend_from_slice(&99u16.to_le_bytes());
        std::fs::write(&path, &hdr).unwrap();
        assert_eq!(replay(&path).unwrap_err().kind(), "unsupported_version");
        // Version 0 (a flipped low version bit) is refused too.
        let mut hdr = WAL_MAGIC.to_vec();
        hdr.extend_from_slice(&0u16.to_le_bytes());
        std::fs::write(&path, &hdr).unwrap();
        assert_eq!(replay(&path).unwrap_err().kind(), "unsupported_version");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_sync_policy_still_replays_cleanly() {
        let dir = tmpdir("batch");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, SyncPolicy::Batch(8)).unwrap();
        for i in 0..20u64 {
            w.append(&WalOp::Swap {
                id: format!("v{}", i % 3),
                generation: i,
            })
            .unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.records(), 20);
        drop(w);
        let rp = replay(&path).unwrap();
        assert_eq!(rp.records.len(), 20);
        assert_eq!(rp.next_seq, 21);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
