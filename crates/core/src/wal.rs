//! The write-ahead log: checksummed frames in rotating segments, plus
//! snapshots for `O(tail)` recovery.
//!
//! The WAL is payload-agnostic — it stores opaque byte records with a
//! global, contiguous record index — and is written entirely against the
//! [`Storage`] trait so the crash-recovery state machine can be exercised
//! under the deterministic fault injector.
//!
//! ## On-disk layout
//!
//! * **Segments** `wal-{seq:010}.seg` — a 28-byte header
//!   (`b"OWTEWAL1"` magic · format version `u32` · segment seq `u64` ·
//!   index of the segment's first record `u64`, all little-endian)
//!   followed by frames `[len: u32][hcrc: u32][crc: u32][payload]`.
//!   `hcrc` covers the length field alone, so a bit flip in `len` is
//!   detected as corruption instead of being misread as a torn tail (an
//!   enlarged `len` would otherwise look like a frame the file ends
//!   inside of); `crc` covers the length field and the payload, so a bit
//!   flip anywhere else in a complete frame is detected too.
//! * **Snapshots** `snap-{ops:010}.snap` — a 20-byte header
//!   (`b"OWTESNP1"` · version · covered record count `u64`) followed by a
//!   single frame holding the state blob.
//!
//! ## Crash rules
//!
//! Recovery distinguishes three situations, in line with the classical
//! WAL treatment:
//!
//! * **Torn tail** — the file ends inside a frame (fewer bytes than the
//!   frame claims). That is what an interrupted append looks like, so the
//!   partial record is dropped and recovery proceeds.
//! * **Unacknowledged overlap** — after a failed append or sync the writer
//!   rotates to a fresh segment that restarts at the last *acknowledged*
//!   index; recovery drops the overlapped (never-acknowledged) records of
//!   the earlier segment.
//! * **Mid-log corruption** — a *complete* frame whose checksum does not
//!   match, a gap in the record index between segments, or a damaged
//!   non-tail header. None of these can result from a crash mid-append;
//!   recovery fails closed rather than serve from damaged history.

use crate::storage::{Storage, StorageError};
use std::fmt;

/// Current on-storage format version of segments and snapshots.
/// Version 2 added the per-frame header CRC (version 1 frames had only
/// the combined length+payload CRC and could not tell an enlarged length
/// field apart from a torn tail).
pub const WAL_VERSION: u32 = 2;

const SEG_MAGIC: &[u8; 8] = b"OWTEWAL1";
const SNAP_MAGIC: &[u8; 8] = b"OWTESNP1";
const SEG_HEADER_LEN: usize = 28;
const SNAP_HEADER_LEN: usize = 20;
const FRAME_HEADER_LEN: usize = 12;

/// An error from the WAL layer.
#[derive(Debug)]
pub enum WalError {
    /// The storage backend failed.
    Storage(StorageError),
    /// The log is damaged in a way a crash cannot explain; recovery
    /// refuses to proceed.
    Corrupt(String),
    /// A segment or snapshot was written by a newer format version.
    UnsupportedVersion {
        /// Version found on storage.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// [`Wal::create`] was asked to initialize a log on storage that
    /// already holds files. Creating there would leave pre-existing
    /// snapshots behind and let a later recovery resurrect the old state;
    /// use [`Wal::open`] for existing logs, or clear the storage first.
    NotEmpty {
        /// Number of files already present.
        files: usize,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Storage(e) => write!(f, "wal storage error: {e}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
            WalError::UnsupportedVersion { found, supported } => write!(
                f,
                "wal format version {found} is not supported (this build reads {supported})"
            ),
            WalError::NotEmpty { files } => write!(
                f,
                "refusing to create a log on non-empty storage ({files} existing files); \
                 open it instead, or clear the storage first"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<StorageError> for WalError {
    fn from(e: StorageError) -> Self {
        WalError::Storage(e)
    }
}

/// Result alias for WAL operations.
pub type Result<T> = std::result::Result<T, WalError>;

// ---------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time so
/// the codec needs no external dependency.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 over the concatenation of `parts`.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    c ^ 0xFFFF_FFFF
}

// ------------------------------------------------------------- framing

/// Encode one `[len][hcrc][crc][payload]` frame.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() as u32).to_le_bytes();
    let hcrc = crc32(&[&len]).to_le_bytes();
    let crc = crc32(&[&len, payload]).to_le_bytes();
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&len);
    out.extend_from_slice(&hcrc);
    out.extend_from_slice(&crc);
    out.extend_from_slice(payload);
    out
}

/// Decoded record payloads, each with its global record index.
type Records = Vec<(u64, Vec<u8>)>;

/// Decode consecutive frames starting at global record index `first`.
///
/// Returns the decoded records and whether the byte stream ended inside a
/// frame (a torn tail). A complete frame with a bad checksum is corruption
/// and fails the decode — and because the length field carries its own
/// CRC, so is a complete frame *header* whose length cannot be trusted: a
/// torn append leaves a strict prefix of correct bytes, never a full
/// header that fails its own checksum, so `hcrc` mismatch means damage,
/// not a crash.
fn decode_frames(mut bytes: &[u8], first: u64) -> Result<(Records, bool)> {
    let mut recs = Vec::new();
    let mut idx = first;
    loop {
        if bytes.is_empty() {
            return Ok((recs, false));
        }
        if bytes.len() < FRAME_HEADER_LEN {
            return Ok((recs, true));
        }
        let len_bytes: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
        let len = u32::from_le_bytes(len_bytes) as usize;
        let hcrc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if crc32(&[&len_bytes]) != hcrc {
            return Err(WalError::Corrupt(format!(
                "frame header checksum mismatch on record {idx}"
            )));
        }
        if bytes.len() - FRAME_HEADER_LEN < len {
            return Ok((recs, true));
        }
        let payload = &bytes[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        if crc32(&[&len_bytes, payload]) != crc {
            return Err(WalError::Corrupt(format!(
                "checksum mismatch on record {idx}"
            )));
        }
        recs.push((idx, payload.to_vec()));
        idx += 1;
        bytes = &bytes[FRAME_HEADER_LEN + len..];
    }
}

// ------------------------------------------------------- names & headers

fn segment_name(seq: u64) -> String {
    format!("wal-{seq:010}.seg")
}

fn snapshot_name(ops: u64) -> String {
    format!("snap-{ops:010}.snap")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn encode_segment_header(seq: u64, first_op: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(SEG_HEADER_LEN);
    h.extend_from_slice(SEG_MAGIC);
    h.extend_from_slice(&WAL_VERSION.to_le_bytes());
    h.extend_from_slice(&seq.to_le_bytes());
    h.extend_from_slice(&first_op.to_le_bytes());
    h
}

fn encode_snapshot_header(ops: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(SNAP_HEADER_LEN);
    h.extend_from_slice(SNAP_MAGIC);
    h.extend_from_slice(&WAL_VERSION.to_le_bytes());
    h.extend_from_slice(&ops.to_le_bytes());
    h
}

/// Validate a segment header; returns the first record index.
fn decode_segment_header(bytes: &[u8], expect_seq: u64) -> Result<u64> {
    if &bytes[0..8] != SEG_MAGIC {
        return Err(WalError::Corrupt(format!(
            "segment {expect_seq}: bad magic"
        )));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != WAL_VERSION {
        return Err(WalError::UnsupportedVersion {
            found: version,
            supported: WAL_VERSION,
        });
    }
    let seq = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if seq != expect_seq {
        return Err(WalError::Corrupt(format!(
            "segment file named {expect_seq} has header seq {seq}"
        )));
    }
    Ok(u64::from_le_bytes(
        bytes[20..28].try_into().expect("8 bytes"),
    ))
}

// ------------------------------------------------------------ recovery

/// What [`Wal::open`] found on storage.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// The newest intact snapshot blob, if any snapshot exists.
    pub snapshot: Option<Vec<u8>>,
    /// Number of records the snapshot covers (0 without a snapshot).
    pub snapshot_ops: u64,
    /// Records after the snapshot, in index order.
    pub tail: Vec<Vec<u8>>,
    /// A torn final record was dropped.
    pub truncated_tail: bool,
    /// Records dropped because a later segment superseded them (they were
    /// written but never acknowledged to the caller).
    pub dropped_unacked: usize,
}

/// The write-ahead log over a [`Storage`] backend.
///
/// `Clone` (for cloneable backends like [`crate::MemStorage`]) forks the
/// log together with its storage — the deterministic simulator uses this
/// to branch a world at a choice point and explore both futures.
#[derive(Debug, Clone)]
pub struct Wal<S: Storage> {
    storage: S,
    config: WalConfig,
    /// Sequence number of the segment currently being appended to.
    seq: u64,
    /// Bytes already in the current segment (header included).
    segment_bytes: usize,
    /// Global index of the next record to append.
    next_op: u64,
    /// A previous append/sync failed or the segment is full: the next
    /// append must start a fresh segment so recovery can disambiguate the
    /// unacknowledged bytes.
    needs_rotation: bool,
}

/// Tunables for the WAL.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_max_bytes: usize,
    /// Sync after every append (durable acknowledgements). Turning this
    /// off trades the durability of the latest records for throughput —
    /// recovery then restores some acknowledged-but-unsynced suffix as
    /// lost, exactly like a real page cache.
    pub sync_on_append: bool,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            segment_max_bytes: 256 * 1024,
            sync_on_append: true,
        }
    }
}

impl<S: Storage> Wal<S> {
    /// Initialize a fresh log on `storage`, which must be empty.
    ///
    /// Creating over existing files is refused ([`WalError::NotEmpty`]):
    /// truncating segment 0 while older snapshots survive would let a
    /// later [`Wal::open`] pick a stale snapshot as newest and silently
    /// resurrect the obsolete state. Open existing logs instead, or clear
    /// the storage deliberately before creating.
    pub fn create(storage: S, config: WalConfig) -> Result<Wal<S>> {
        let existing = storage.list()?;
        if !existing.is_empty() {
            return Err(WalError::NotEmpty {
                files: existing.len(),
            });
        }
        let mut wal = Wal {
            storage,
            config,
            seq: 0,
            segment_bytes: 0,
            next_op: 0,
            needs_rotation: false,
        };
        wal.start_segment(0)?;
        Ok(wal)
    }

    /// Open an existing log, running crash recovery.
    ///
    /// Always starts a fresh segment for subsequent appends, so torn or
    /// unacknowledged bytes left by a crash are never appended after.
    pub fn open(storage: S, config: WalConfig) -> Result<(Wal<S>, Recovered)> {
        let names = storage.list()?;
        let mut segs: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| parse_segment_name(n).map(|s| (s, n.clone())))
            .collect();
        segs.sort();
        let mut snaps: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| parse_snapshot_name(n).map(|s| (s, n.clone())))
            .collect();
        snaps.sort();

        // Newest intact snapshot wins. A torn snapshot (interrupted write)
        // is skipped; a complete-but-mismatched one is corruption.
        let mut snapshot: Option<Vec<u8>> = None;
        let mut snapshot_ops = 0u64;
        for (ops, name) in snaps.iter().rev() {
            match Self::read_snapshot(&storage, *ops, name)? {
                Some(blob) => {
                    snapshot = Some(blob);
                    snapshot_ops = *ops;
                    break;
                }
                None => continue, // torn: fall back to an older snapshot
            }
        }

        // Decode all segments under the contiguity rules.
        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut reached: Option<u64> = None;
        let mut truncated_tail = false;
        let mut dropped_unacked = 0usize;
        let mut max_seq = 0u64;
        let last_i = segs.len().wrapping_sub(1);
        for (i, (seq, name)) in segs.iter().enumerate() {
            max_seq = max_seq.max(*seq);
            let is_last = i == last_i;
            let bytes = storage.read(name)?;
            if bytes.len() < SEG_HEADER_LEN {
                if is_last {
                    // Crash while creating this segment; it holds nothing.
                    continue;
                }
                return Err(WalError::Corrupt(format!(
                    "segment {seq}: header truncated mid-log"
                )));
            }
            let first_op = decode_segment_header(&bytes, *seq)?;
            match reached {
                None => {}
                Some(r) => {
                    if first_op > r {
                        // A gap is only a crash-explicable state when the
                        // missing records all lie under the snapshot: an
                        // interrupted compaction can leave stale-segment
                        // holes there (and only there), while a gap past
                        // the snapshot is lost acknowledged history.
                        if first_op > snapshot_ops {
                            return Err(WalError::Corrupt(format!(
                                "gap in record index: segment {seq} starts at {first_op}, \
                                 log only reaches {r}"
                            )));
                        }
                        // Everything before the gap is superseded by the
                        // snapshot; the records are filtered out below.
                    } else if first_op < r {
                        // The writer rotated after a failed append/sync:
                        // records at and past first_op were never
                        // acknowledged. Drop them.
                        let before = records.len();
                        records.retain(|(idx, _)| *idx < first_op);
                        dropped_unacked += before - records.len();
                    }
                }
            }
            let (recs, torn) = decode_frames(&bytes[SEG_HEADER_LEN..], first_op)?;
            reached = Some(first_op + recs.len() as u64);
            records.extend(recs);
            if torn && is_last {
                truncated_tail = true;
            }
        }
        let reached = reached.unwrap_or(0);

        // The tail must connect to the snapshot (or to genesis).
        if let Some((first_idx, _)) = records.first() {
            if *first_idx > snapshot_ops {
                return Err(WalError::Corrupt(format!(
                    "records before index {first_idx} are missing and the newest \
                     snapshot only covers {snapshot_ops}"
                )));
            }
        } else if snapshot.is_none() && !segs.is_empty() && reached > 0 {
            return Err(WalError::Corrupt(
                "no snapshot and no genesis segment".into(),
            ));
        }

        let next_op = reached.max(snapshot_ops);
        let tail: Vec<Vec<u8>> = records
            .into_iter()
            .filter(|(idx, _)| *idx >= snapshot_ops)
            .map(|(_, p)| p)
            .collect();

        let mut wal = Wal {
            storage,
            config,
            seq: max_seq,
            segment_bytes: 0,
            next_op,
            needs_rotation: false,
        };
        // Fresh segment: never append after recovered (possibly torn) bytes.
        let next_seq = if segs.is_empty() { 0 } else { max_seq + 1 };
        wal.start_segment(next_seq)?;

        Ok((
            wal,
            Recovered {
                snapshot,
                snapshot_ops,
                tail,
                truncated_tail,
                dropped_unacked,
            },
        ))
    }

    /// Read and validate one snapshot file. `Ok(None)` means torn (skip);
    /// `Err` means corrupt or version-incompatible (fail closed).
    fn read_snapshot(storage: &S, ops: u64, name: &str) -> Result<Option<Vec<u8>>> {
        let bytes = storage.read(name)?;
        if bytes.len() < SNAP_HEADER_LEN {
            return Ok(None);
        }
        if &bytes[0..8] != SNAP_MAGIC {
            return Err(WalError::Corrupt(format!("snapshot {ops}: bad magic")));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != WAL_VERSION {
            return Err(WalError::UnsupportedVersion {
                found: version,
                supported: WAL_VERSION,
            });
        }
        let header_ops = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        if header_ops != ops {
            return Err(WalError::Corrupt(format!(
                "snapshot file named {ops} has header count {header_ops}"
            )));
        }
        let (mut frames, torn) = decode_frames(&bytes[SNAP_HEADER_LEN..], 0)?;
        if torn || frames.is_empty() {
            return Ok(None);
        }
        if frames.len() != 1 {
            return Err(WalError::Corrupt(format!(
                "snapshot {ops}: expected one frame, found {}",
                frames.len()
            )));
        }
        Ok(Some(frames.remove(0).1))
    }

    /// Create (or truncate) and initialize segment `seq`; commits the
    /// state change only once the header is durable.
    fn start_segment(&mut self, seq: u64) -> Result<()> {
        let name = segment_name(seq);
        let header = encode_segment_header(seq, self.next_op);
        self.needs_rotation = true; // cleared only on full success
        self.storage.create(&name)?;
        self.storage.append(&name, &header)?;
        self.storage.sync(&name)?;
        self.seq = seq;
        self.segment_bytes = header.len();
        self.needs_rotation = false;
        Ok(())
    }

    /// Append one record; returns its global index once durable (or, with
    /// `sync_on_append` off, once written).
    ///
    /// On error the record is *not* acknowledged and the WAL arranges for
    /// the next append to start a fresh segment, so recovery can tell the
    /// failed bytes apart from real history.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if self.needs_rotation || self.segment_bytes >= self.config.segment_max_bytes {
            self.start_segment(self.seq + 1)?;
        }
        let name = segment_name(self.seq);
        let frame = encode_frame(payload);
        if let Err(e) = self.storage.append(&name, &frame) {
            self.needs_rotation = true;
            return Err(e.into());
        }
        if self.config.sync_on_append {
            if let Err(e) = self.storage.sync(&name) {
                self.needs_rotation = true;
                return Err(e.into());
            }
        }
        let idx = self.next_op;
        self.next_op += 1;
        self.segment_bytes += frame.len();
        Ok(idx)
    }

    /// Make everything appended so far durable (used with
    /// `sync_on_append = false` as an explicit group-commit point).
    pub fn sync(&mut self) -> Result<()> {
        let name = segment_name(self.seq);
        if let Err(e) = self.storage.sync(&name) {
            self.needs_rotation = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// Write a snapshot covering every record appended so far, then
    /// compact: rotate to a fresh segment and delete the history the
    /// snapshot supersedes.
    ///
    /// Crash-safe by ordering — the snapshot is durable before anything is
    /// deleted, so recovery always has either the new snapshot or the old
    /// chain.
    pub fn snapshot(&mut self, blob: &[u8]) -> Result<()> {
        let ops = self.next_op;
        let name = snapshot_name(ops);
        let mut bytes = encode_snapshot_header(ops);
        bytes.extend_from_slice(&encode_frame(blob));
        self.storage.create(&name)?;
        self.storage.append(&name, &bytes)?;
        self.storage.sync(&name)?;

        // Cut over to a fresh segment; every older segment is now covered
        // by the snapshot.
        self.start_segment(self.seq + 1)?;

        // Best-effort space reclamation: a crash here leaves stale files
        // that recovery handles (and the next snapshot retries deleting).
        // Segments are deleted oldest-first, and deletion stops at the
        // first failure, so the surviving segments always form a
        // contiguous suffix of the log — an interrupted compaction must
        // never open a gap in the record index between survivors.
        if let Ok(names) = self.storage.list() {
            let mut stale_segs: Vec<u64> = names
                .iter()
                .filter_map(|n| parse_segment_name(n))
                .filter(|s| *s < self.seq)
                .collect();
            stale_segs.sort_unstable();
            for s in stale_segs {
                if self.storage.delete(&segment_name(s)).is_err() {
                    break;
                }
            }
            let mut stale_snaps: Vec<u64> = names
                .iter()
                .filter_map(|n| parse_snapshot_name(n))
                .filter(|s| *s < ops)
                .collect();
            stale_snaps.sort_unstable();
            for s in stale_snaps {
                if self.storage.delete(&snapshot_name(s)).is_err() {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Global index of the next record to be appended.
    pub fn next_op(&self) -> u64 {
        self.next_op
    }

    /// Read back the acknowledged records with global index `>= from`,
    /// in index order, from storage.
    ///
    /// This is the leader's (re-)shipping read in the replication layer: a
    /// follower acknowledges a prefix, and the leader serves everything
    /// past it straight from its own durable log. Unacknowledged bytes
    /// (failed appends awaiting rotation, torn frames) are excluded — the
    /// scan applies the same supersede rule as [`Wal::open`] and caps at
    /// the acknowledged record count.
    ///
    /// The result starts at `from` only if the log still holds that
    /// record: compaction may have deleted segments the newest snapshot
    /// covers, in which case the first returned index is later than
    /// `from` and the caller must fall back to state transfer.
    pub fn records_from(&self, from: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        let names = self.storage.list()?;
        let mut segs: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| parse_segment_name(n).map(|s| (s, n.clone())))
            .collect();
        segs.sort();
        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        for (seq, name) in &segs {
            let bytes = self.storage.read(name)?;
            if bytes.len() < SEG_HEADER_LEN {
                continue; // freshly created segment, no records yet
            }
            let first_op = decode_segment_header(&bytes, *seq)?;
            if let Some(reach) = records.last().map(|(idx, _)| idx + 1) {
                if first_op < reach {
                    // Rotation after a failed append/sync: the overlapped
                    // records were never acknowledged.
                    records.retain(|(idx, _)| *idx < first_op);
                }
            }
            let (recs, _torn) = decode_frames(&bytes[SEG_HEADER_LEN..], first_op)?;
            records.extend(recs);
        }
        records.retain(|(idx, _)| *idx >= from && *idx < self.next_op);
        Ok(records)
    }

    /// Sequence number of the active segment.
    pub fn segment_seq(&self) -> u64 {
        self.seq
    }

    /// Borrow the storage backend.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Borrow the storage backend mutably (test hook).
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// Take the storage backend back (e.g. to crash and reopen it).
    pub fn into_storage(self) -> S {
        self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn recs(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("record-{i}").into_bytes()).collect()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC-32 of "123456789" is the classic check value 0xCBF43926.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let mut wal = Wal::create(MemStorage::new(), WalConfig::default()).unwrap();
        for r in recs(5) {
            wal.append(&r).unwrap();
        }
        let (wal2, rec) = Wal::open(wal.into_storage(), WalConfig::default()).unwrap();
        assert_eq!(rec.tail, recs(5));
        assert!(!rec.truncated_tail);
        assert_eq!(rec.snapshot, None);
        assert_eq!(wal2.next_op(), 5);
    }

    #[test]
    fn rotation_preserves_order_across_segments() {
        let config = WalConfig {
            segment_max_bytes: 64, // tiny: force many segments
            sync_on_append: true,
        };
        let mut wal = Wal::create(MemStorage::new(), config.clone()).unwrap();
        for r in recs(20) {
            wal.append(&r).unwrap();
        }
        assert!(wal.segment_seq() > 0, "should have rotated");
        let (_, rec) = Wal::open(wal.into_storage(), config).unwrap();
        assert_eq!(rec.tail, recs(20));
    }

    #[test]
    fn torn_tail_is_truncated() {
        let mut wal = Wal::create(MemStorage::new(), WalConfig::default()).unwrap();
        for r in recs(3) {
            wal.append(&r).unwrap();
        }
        let mut storage = wal.into_storage();
        let name = segment_name(0);
        let len = storage.raw(&name).unwrap().len();
        storage.truncate(&name, len - 3); // cut into the last frame
        let (_, rec) = Wal::open(storage, WalConfig::default()).unwrap();
        assert_eq!(rec.tail, recs(2));
        assert!(rec.truncated_tail);
    }

    #[test]
    fn midlog_corruption_fails_closed() {
        let mut wal = Wal::create(MemStorage::new(), WalConfig::default()).unwrap();
        for r in recs(3) {
            wal.append(&r).unwrap();
        }
        let mut storage = wal.into_storage();
        // Flip a bit inside the first record's payload.
        storage.corrupt(&segment_name(0), SEG_HEADER_LEN + FRAME_HEADER_LEN + 2);
        match Wal::open(storage, WalConfig::default()) {
            Err(WalError::Corrupt(m)) => assert!(m.contains("checksum")),
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_compacts_and_recovers_tail_only() {
        let mut wal = Wal::create(MemStorage::new(), WalConfig::default()).unwrap();
        for r in recs(10) {
            wal.append(&r).unwrap();
        }
        wal.snapshot(b"state-at-10").unwrap();
        wal.append(b"post-snap").unwrap();
        let storage = wal.into_storage();
        assert_eq!(
            storage
                .list()
                .unwrap()
                .iter()
                .filter(|n| parse_snapshot_name(n).is_some())
                .count(),
            1
        );
        let (_, rec) = Wal::open(storage, WalConfig::default()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(b"state-at-10".as_ref()));
        assert_eq!(rec.snapshot_ops, 10);
        assert_eq!(rec.tail, vec![b"post-snap".to_vec()]);
    }

    #[test]
    fn torn_snapshot_falls_back_to_older_chain() {
        let mut wal = Wal::create(MemStorage::new(), WalConfig::default()).unwrap();
        for r in recs(4) {
            wal.append(&r).unwrap();
        }
        wal.snapshot(b"good").unwrap();
        wal.append(b"tail-1").unwrap();
        // Simulate a snapshot interrupted mid-write: header only, no frame.
        let mut storage = wal.into_storage();
        storage.create(&snapshot_name(5)).unwrap();
        storage
            .append(&snapshot_name(5), &encode_snapshot_header(5))
            .unwrap();
        storage.sync(&snapshot_name(5)).unwrap();
        let (_, rec) = Wal::open(storage, WalConfig::default()).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(b"good".as_ref()));
        assert_eq!(rec.snapshot_ops, 4);
        assert_eq!(rec.tail, vec![b"tail-1".to_vec()]);
    }

    #[test]
    fn corrupt_snapshot_fails_closed() {
        let mut wal = Wal::create(MemStorage::new(), WalConfig::default()).unwrap();
        for r in recs(4) {
            wal.append(&r).unwrap();
        }
        wal.snapshot(b"state").unwrap();
        let mut storage = wal.into_storage();
        storage.corrupt(&snapshot_name(4), SNAP_HEADER_LEN + FRAME_HEADER_LEN + 1);
        assert!(matches!(
            Wal::open(storage, WalConfig::default()),
            Err(WalError::Corrupt(_))
        ));
    }

    #[test]
    fn future_version_segment_is_rejected() {
        let mut wal = Wal::create(MemStorage::new(), WalConfig::default()).unwrap();
        wal.append(b"r").unwrap();
        let mut storage = wal.into_storage();
        // Bump the version field (second byte, so the result is > 1).
        storage.corrupt(&segment_name(0), 9);
        match Wal::open(storage, WalConfig::default()) {
            Err(WalError::UnsupportedVersion { found, supported }) => {
                assert_ne!(found, supported);
                assert_eq!(supported, WAL_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn rotation_after_failed_sync_supersedes_unacked_record() {
        let mut wal = Wal::create(MemStorage::new(), WalConfig::default()).unwrap();
        for r in recs(3) {
            wal.append(&r).unwrap();
        }
        // Write a record that will never be acknowledged, then rotate the
        // way the writer does after a failed sync.
        let name = segment_name(wal.segment_seq());
        wal.storage_mut()
            .append(&name, &encode_frame(b"unacked"))
            .unwrap();
        wal.storage_mut().sync(&name).unwrap();
        wal.needs_rotation = true;
        wal.append(b"acked-after-rotation").unwrap();

        let (_, rec) = Wal::open(wal.into_storage(), WalConfig::default()).unwrap();
        let mut expect = recs(3);
        expect.push(b"acked-after-rotation".to_vec());
        assert_eq!(rec.tail, expect);
        assert_eq!(rec.dropped_unacked, 1);
    }

    #[test]
    fn create_on_nonempty_storage_is_refused() {
        let mut wal = Wal::create(MemStorage::new(), WalConfig::default()).unwrap();
        wal.append(b"r").unwrap();
        wal.snapshot(b"state").unwrap();
        let storage = wal.into_storage();
        match Wal::create(storage, WalConfig::default()) {
            Err(WalError::NotEmpty { files }) => assert!(files > 0),
            other => panic!("expected NotEmpty, got {other:?}"),
        }
    }

    #[test]
    fn enlarged_len_field_is_corruption_not_torn_tail() {
        let mut wal = Wal::create(MemStorage::new(), WalConfig::default()).unwrap();
        for r in recs(3) {
            wal.append(&r).unwrap();
        }
        let mut storage = wal.into_storage();
        let name = segment_name(0);
        // Flip a bit in the *length field* of the last frame so it claims
        // more payload than the file holds. Without the header CRC this
        // read as a torn tail and silently dropped the acknowledged
        // record; it must fail closed instead.
        let last_payload_len = recs(3).last().unwrap().len();
        let offset = storage.raw(&name).unwrap().len() - (FRAME_HEADER_LEN + last_payload_len);
        storage.corrupt(&name, offset);
        match Wal::open(storage, WalConfig::default()) {
            Err(WalError::Corrupt(m)) => assert!(m.contains("header"), "got: {m}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn interrupted_compaction_gap_under_snapshot_recovers() {
        let config = WalConfig {
            segment_max_bytes: 64, // tiny: force several segments
            sync_on_append: true,
        };
        let mut wal = Wal::create(MemStorage::new(), config.clone()).unwrap();
        for r in recs(8) {
            wal.append(&r).unwrap();
        }
        let ops = wal.next_op();
        assert!(wal.segment_seq() >= 2, "need at least three segments");
        let mut storage = wal.into_storage();
        // Hand-write a snapshot covering the whole log, then delete a
        // *middle* stale segment: the state an unordered (or partially
        // failed) compaction could have left behind after a crash.
        let name = snapshot_name(ops);
        let mut bytes = encode_snapshot_header(ops);
        bytes.extend_from_slice(&encode_frame(b"covers-all"));
        storage.create(&name).unwrap();
        storage.append(&name, &bytes).unwrap();
        storage.sync(&name).unwrap();
        storage.delete(&segment_name(1)).unwrap();

        let (wal2, rec) = Wal::open(storage, config).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(b"covers-all".as_ref()));
        assert_eq!(rec.snapshot_ops, ops);
        assert!(rec.tail.is_empty(), "everything is under the snapshot");
        assert_eq!(wal2.next_op(), ops);
    }

    #[test]
    fn gap_past_snapshot_still_fails_closed() {
        let config = WalConfig {
            segment_max_bytes: 64,
            sync_on_append: true,
        };
        let mut wal = Wal::create(MemStorage::new(), config.clone()).unwrap();
        for r in recs(8) {
            wal.append(&r).unwrap();
        }
        assert!(wal.segment_seq() >= 2, "need at least three segments");
        let mut storage = wal.into_storage();
        // No snapshot covers the hole: deleting a middle segment loses
        // acknowledged history and recovery must refuse.
        storage.delete(&segment_name(1)).unwrap();
        match Wal::open(storage, config) {
            Err(WalError::Corrupt(m)) => assert!(m.contains("gap"), "got: {m}"),
            other => panic!("expected gap error, got {other:?}"),
        }
    }

    #[test]
    fn open_on_empty_storage_is_a_fresh_log() {
        let (wal, rec) = Wal::open(MemStorage::new(), WalConfig::default()).unwrap();
        assert_eq!(wal.next_op(), 0);
        assert!(rec.snapshot.is_none());
        assert!(rec.tail.is_empty());
    }

    #[test]
    fn reopen_after_crash_keeps_only_synced_prefix() {
        let config = WalConfig {
            segment_max_bytes: 1 << 20,
            sync_on_append: false, // appends live only in the page cache
        };
        let mut wal = Wal::create(MemStorage::new(), config.clone()).unwrap();
        for r in recs(3) {
            wal.append(&r).unwrap();
        }
        wal.sync().unwrap();
        wal.append(b"lost-1").unwrap();
        wal.append(b"lost-2").unwrap();
        let mut storage = wal.into_storage();
        storage.crash();
        let (_, rec) = Wal::open(storage, config).unwrap();
        assert_eq!(rec.tail, recs(3));
    }
}
