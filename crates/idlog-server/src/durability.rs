//! Crash-safe per-tenant durability: a write-ahead log plus checkpoint
//! snapshots.
//!
//! Each tenant of a server started with `--data-dir <dir>` owns a
//! directory `<dir>/tenants/<escaped-name>/` holding two files:
//!
//! * `wal.log` — the write-ahead log: a fixed header followed by
//!   length-prefixed, CRC-32-checksummed records, one per acknowledged
//!   fact change ([`WalRecord::Insert`] / [`WalRecord::Retract`]; a
//!   [`WalRecord::SetProgram`] kind is reserved in the encoding for a
//!   future durable-program surface). A record is appended — and, per the
//!   [`SyncPolicy`], fsynced — **before** the change is acknowledged on
//!   the wire, so every acked write survives a crash.
//! * `checkpoint.snap` — a snapshot of the entire EDB at some log version,
//!   written to a temporary file, fsynced, and atomically renamed into
//!   place. After a successful checkpoint the WAL is truncated (same
//!   write-then-rename dance), bounding recovery work.
//!
//! Recovery ([`TenantStore::open`]) loads the checkpoint, replays the WAL
//! records past the checkpoint version **in order**, and detects torn
//! tails — a truncated length prefix, a short payload, or a CRC mismatch —
//! by cleanly truncating the file at the last intact record. A torn tail
//! is exactly what a crash mid-append leaves behind; the write it belonged
//! to was never acknowledged, so dropping it restores the database to the
//! acknowledged prefix.
//!
//! Every file operation is a failpoint site (`wal.append`, `wal.fsync`,
//! `wal.truncate`, `snapshot.write`), including a torn-write action that
//! drops a suffix of the record being appended; the kill-and-recover suite
//! drives injected crashes through every site and asserts the recovered
//! database equals a prefix of acknowledged writes.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use idlog_common::crc32::crc32;
use idlog_common::{failpoint, Nat};
use idlog_core::service::FactValue;

/// Magic bytes opening `wal.log`; the trailing digit versions the record
/// encoding.
pub const WAL_MAGIC: &[u8; 8] = b"IDLOGW01";

/// Magic bytes opening `checkpoint.snap`.
pub const SNAP_MAGIC: &[u8; 8] = b"IDLOGS01";

/// When to fsync the WAL, selected by `idlog serve --sync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every record, before the acknowledgement. An acked
    /// write survives power loss.
    Always,
    /// fsync every [`BATCH_SYNC_RECORDS`] records (and on checkpoint). An
    /// acked write survives a process crash; the tail of a batch may be
    /// lost to power failure.
    #[default]
    Batch,
    /// Never fsync explicitly; the OS flushes on its own schedule. An
    /// acked write survives a process crash only.
    Never,
}

/// Record interval of the [`SyncPolicy::Batch`] fsync.
pub const BATCH_SYNC_RECORDS: u64 = 32;

impl SyncPolicy {
    /// The flag/wire name.
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Batch => "batch",
            SyncPolicy::Never => "never",
        }
    }

    /// Parse a flag value.
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        Some(match s {
            "always" => SyncPolicy::Always,
            "batch" => SyncPolicy::Batch,
            "never" => SyncPolicy::Never,
            _ => return None,
        })
    }
}

/// One durable change. The encoding is shared by the WAL and the
/// checkpoint (a checkpoint is a sequence of `Insert` records).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A fact was added.
    Insert {
        /// Predicate name.
        pred: String,
        /// Fact arguments.
        tuple: Vec<FactValue>,
    },
    /// A fact was removed.
    Retract {
        /// Predicate name.
        pred: String,
        /// Fact arguments.
        tuple: Vec<FactValue>,
    },
    /// Reserved: a durable program installation (no current writer).
    SetProgram {
        /// Program text.
        program: String,
        /// Output predicate.
        output: String,
    },
}

const KIND_INSERT: u8 = 1;
const KIND_RETRACT: u8 = 2;
const KIND_SET_PROGRAM: u8 = 3;

const TAG_SYM: u8 = 0;
const TAG_INT: u8 = 1;

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_value(out: &mut Vec<u8>, v: &FactValue) {
    match v {
        FactValue::Sym(s) => {
            out.push(TAG_SYM);
            put_bytes(out, s.as_bytes());
        }
        FactValue::Int(n) => {
            // Integers are stored 16 bytes wide (i128) so the on-disk
            // format survives a future widening of the value model.
            out.push(TAG_INT);
            out.extend_from_slice(&i128::from(n.get()).to_le_bytes());
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload underrun: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid utf-8 in record: {e}"))
    }

    fn value(&mut self) -> Result<FactValue, String> {
        match self.u8()? {
            TAG_SYM => Ok(FactValue::Sym(self.string()?)),
            TAG_INT => {
                let wide = i128::from_le_bytes(self.take(16)?.try_into().unwrap());
                let n = i64::try_from(wide)
                    .ok()
                    .and_then(Nat::new)
                    .ok_or_else(|| format!("integer {wide} is not a natural in i64 range"))?;
                Ok(FactValue::Int(n))
            }
            tag => Err(format!("unknown value tag {tag}")),
        }
    }
}

fn encode_payload(seq: u64, record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&seq.to_le_bytes());
    match record {
        WalRecord::Insert { pred, tuple } | WalRecord::Retract { pred, tuple } => {
            out.push(if matches!(record, WalRecord::Insert { .. }) {
                KIND_INSERT
            } else {
                KIND_RETRACT
            });
            put_bytes(&mut out, pred.as_bytes());
            out.extend_from_slice(&(tuple.len() as u16).to_le_bytes());
            for v in tuple {
                put_value(&mut out, v);
            }
        }
        WalRecord::SetProgram { program, output } => {
            out.push(KIND_SET_PROGRAM);
            put_bytes(&mut out, program.as_bytes());
            put_bytes(&mut out, output.as_bytes());
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> Result<(u64, WalRecord), String> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let seq = c.u64()?;
    let kind = c.u8()?;
    let record = match kind {
        KIND_INSERT | KIND_RETRACT => {
            let pred = c.string()?;
            let arity = u16::from_le_bytes(c.take(2)?.try_into().unwrap()) as usize;
            let mut tuple = Vec::with_capacity(arity.min(64));
            for _ in 0..arity {
                tuple.push(c.value()?);
            }
            if kind == KIND_INSERT {
                WalRecord::Insert { pred, tuple }
            } else {
                WalRecord::Retract { pred, tuple }
            }
        }
        KIND_SET_PROGRAM => WalRecord::SetProgram {
            program: c.string()?,
            output: c.string()?,
        },
        other => return Err(format!("unknown record kind {other}")),
    };
    if c.pos != payload.len() {
        return Err(format!(
            "{} trailing bytes after record body",
            payload.len() - c.pos
        ));
    }
    Ok((seq, record))
}

/// Encode one framed record: `u32` payload length, `u32` CRC-32 of the
/// payload, payload (`u64` sequence number, `u8` kind, body).
pub fn encode_record(seq: u64, record: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(seq, record);
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The result of decoding one frame from a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded {
    /// A complete, checksum-verified record and the bytes it consumed.
    Record {
        /// Sequence number carried in the payload.
        seq: u64,
        /// The decoded record.
        record: WalRecord,
        /// Total frame size in bytes.
        consumed: usize,
    },
    /// The buffer ends mid-frame: a torn tail (crash mid-append). Scanning
    /// stops cleanly here.
    Torn(String),
}

/// Ceiling on one record's payload (a fact is small; anything bigger is
/// corruption masquerading as a length).
const MAX_PAYLOAD: u32 = 1 << 24;

/// Decode the frame at the start of `buf`. Never panics: any malformed
/// region — truncated length prefix, short payload, CRC mismatch, bad
/// tag/UTF-8 — is reported as [`Decoded::Torn`] with the reason.
pub fn decode_record(buf: &[u8]) -> Decoded {
    if buf.len() < 8 {
        return Decoded::Torn(format!("truncated frame header ({} bytes)", buf.len()));
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Decoded::Torn(format!("implausible payload length {len}"));
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let Some(payload) = buf.get(8..8 + len as usize) else {
        return Decoded::Torn(format!(
            "short payload: header promises {len} bytes, {} present",
            buf.len() - 8
        ));
    };
    if crc32(payload) != crc {
        return Decoded::Torn("CRC mismatch".to_string());
    }
    match decode_payload(payload) {
        Ok((seq, record)) => Decoded::Record {
            seq,
            record,
            consumed: 8 + len as usize,
        },
        Err(e) => Decoded::Torn(e),
    }
}

/// What a [`TenantStore::open`] found on disk, ready to rebuild the
/// in-memory database: the checkpoint's facts (as inserts), then the WAL
/// tail, in original order.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Ordered changes to replay into an empty database.
    pub ops: Vec<WalRecord>,
    /// Log version after the last replayed record.
    pub version: u64,
    /// Version the checkpoint (if any) was taken at.
    pub checkpoint_version: u64,
    /// WAL records replayed past the checkpoint.
    pub wal_replayed: u64,
    /// Why the WAL tail was truncated, when a torn tail was found.
    pub truncated_tail: Option<String>,
}

fn io_err(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// A tenant's open durability state: its directory and appendable WAL.
#[derive(Debug)]
pub struct TenantStore {
    dir: PathBuf,
    wal: File,
    policy: SyncPolicy,
    /// Sequence number the next appended record will carry.
    next_seq: u64,
    /// Records appended since the last fsync (batch policy).
    unsynced: u64,
    /// Records appended since the last checkpoint.
    since_checkpoint: u64,
}

impl TenantStore {
    /// Open (creating if needed) the tenant directory, recover its durable
    /// state, and leave the WAL ready for appending. A torn WAL tail is
    /// truncated on disk as part of recovery.
    pub fn open(dir: &Path, policy: SyncPolicy) -> io::Result<(TenantStore, Recovery)> {
        fs::create_dir_all(dir)?;
        let mut recovery = Recovery::default();

        // 1. Checkpoint, if one was ever completed. The write-then-rename
        // protocol means the file is either absent, the previous complete
        // snapshot, or the new complete snapshot — a torn snapshot only
        // ever exists under the temporary name, which is ignored.
        let snap_path = dir.join("checkpoint.snap");
        if let Ok(bytes) = fs::read(&snap_path) {
            let (version, facts) = decode_checkpoint(&bytes).map_err(io_err)?;
            recovery.checkpoint_version = version;
            recovery.version = version;
            recovery.ops = facts;
        }

        // 2. WAL tail: replay records past the checkpoint version, truncate
        // at the first torn frame.
        let wal_path = dir.join("wal.log");
        let mut good_end = WAL_MAGIC.len() as u64;
        match fs::read(&wal_path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                write_fresh_wal(&wal_path)?;
            }
            Err(e) => return Err(e),
            Ok(bytes) => {
                if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
                    return Err(io_err(format!(
                        "{}: not an idlog WAL (bad magic)",
                        wal_path.display()
                    )));
                }
                let mut offset = WAL_MAGIC.len();
                loop {
                    if offset == bytes.len() {
                        break;
                    }
                    match decode_record(&bytes[offset..]) {
                        Decoded::Record {
                            seq,
                            record,
                            consumed,
                        } => {
                            offset += consumed;
                            good_end = offset as u64;
                            // Records at or below the checkpoint version are
                            // already folded into the snapshot.
                            if seq > recovery.version {
                                if seq != recovery.version + 1 {
                                    return Err(io_err(format!(
                                        "{}: sequence gap: expected {}, found {seq}",
                                        wal_path.display(),
                                        recovery.version + 1
                                    )));
                                }
                                recovery.ops.push(record);
                                recovery.version = seq;
                                recovery.wal_replayed += 1;
                            }
                        }
                        Decoded::Torn(reason) => {
                            recovery.truncated_tail = Some(reason);
                            break;
                        }
                    }
                }
            }
        }

        let mut wal = OpenOptions::new().read(true).write(true).open(&wal_path)?;
        if recovery.truncated_tail.is_some() {
            failpoint::hit("wal.truncate").map_err(io_err)?;
            wal.set_len(good_end)?;
            wal.sync_data()?;
        }
        wal.seek(SeekFrom::End(0))?;

        let store = TenantStore {
            dir: dir.to_path_buf(),
            wal,
            policy,
            next_seq: recovery.version + 1,
            unsynced: 0,
            since_checkpoint: recovery.wal_replayed,
        };
        Ok((store, recovery))
    }

    /// The log version of the most recently appended record.
    pub fn version(&self) -> u64 {
        self.next_seq - 1
    }

    /// Append one record and make it durable per the sync policy. On
    /// success returns the record's sequence number.
    ///
    /// On failure the append is **undone on disk** (the file is truncated
    /// back to its pre-append length) so memory and disk stay in lockstep
    /// when the caller rolls its state back; if even the truncate fails
    /// the store is in an unknown state and the error says so — the caller
    /// must quarantine the tenant until a restart re-runs recovery.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, AppendError> {
        let frame = encode_record(self.next_seq, record);
        let start = self
            .wal
            .stream_position()
            .map_err(|e| AppendError::clean(format!("wal position: {e}")))?;

        // Injected crash mid-write: persist a prefix of the frame and stop
        // without cleanup, exactly as a power cut would. The caller treats
        // this as fatal for the tenant until restart.
        if let Some(n) = failpoint::torn_bytes("wal.append") {
            let keep = frame.len().saturating_sub(n as usize);
            let _ = self.wal.write_all(&frame[..keep]);
            let _ = self.wal.sync_data();
            return Err(AppendError::crash(format!(
                "torn write injected: {keep} of {} bytes persisted",
                frame.len()
            )));
        }

        let result = failpoint::hit("wal.append")
            .map_err(io_err)
            .and_then(|()| self.wal.write_all(&frame))
            .and_then(|()| self.sync_after_append());
        match result {
            Ok(()) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.since_checkpoint += 1;
                Ok(seq)
            }
            Err(e) => {
                // Undo the partial append so disk matches the caller's
                // rolled-back memory state.
                let undone = failpoint::hit("wal.truncate")
                    .map_err(io_err)
                    .and_then(|()| self.wal.set_len(start))
                    .and_then(|()| self.wal.seek(SeekFrom::End(0)).map(|_| ()));
                match undone {
                    Ok(()) => Err(AppendError::clean(format!("wal append failed: {e}"))),
                    Err(t) => Err(AppendError::crash(format!(
                        "wal append failed ({e}) and truncate-back failed ({t})"
                    ))),
                }
            }
        }
    }

    fn sync_after_append(&mut self) -> io::Result<()> {
        match self.policy {
            SyncPolicy::Always => {
                failpoint::hit("wal.fsync").map_err(io_err)?;
                self.wal.sync_data()
            }
            SyncPolicy::Batch => {
                self.unsynced += 1;
                if self.unsynced >= BATCH_SYNC_RECORDS {
                    failpoint::hit("wal.fsync").map_err(io_err)?;
                    self.wal.sync_data()?;
                    self.unsynced = 0;
                }
                Ok(())
            }
            SyncPolicy::Never => Ok(()),
        }
    }

    /// Records appended since the last checkpoint (or recovery).
    pub fn since_checkpoint(&self) -> u64 {
        self.since_checkpoint
    }

    /// Write a checkpoint of `facts` at `version` and truncate the WAL.
    ///
    /// Failure is always safe: the snapshot goes to a temporary file first
    /// and the WAL is only truncated after the rename lands, so a crash at
    /// any point leaves either the old (checkpoint, WAL) pair or the new
    /// one — recovery replays whichever is on disk.
    pub fn checkpoint(
        &mut self,
        version: u64,
        facts: &[(String, Vec<FactValue>)],
    ) -> io::Result<()> {
        failpoint::hit("snapshot.write").map_err(io_err)?;
        let tmp = self.dir.join("checkpoint.tmp");
        let mut out = Vec::new();
        out.extend_from_slice(SNAP_MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(facts.len() as u64).to_le_bytes());
        for (pred, tuple) in facts {
            let record = WalRecord::Insert {
                pred: pred.clone(),
                tuple: tuple.clone(),
            };
            out.extend_from_slice(&encode_record(version, &record));
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join("checkpoint.snap"))?;
        sync_dir(&self.dir)?;

        // The snapshot is durable; the WAL can restart empty.
        failpoint::hit("wal.truncate").map_err(io_err)?;
        let wal_path = self.dir.join("wal.log");
        write_fresh_wal(&wal_path)?;
        self.wal = OpenOptions::new().read(true).write(true).open(&wal_path)?;
        self.wal.seek(SeekFrom::End(0))?;
        self.unsynced = 0;
        self.since_checkpoint = 0;
        Ok(())
    }
}

/// How an [`TenantStore::append`] failed.
#[derive(Debug)]
pub struct AppendError {
    /// Human-readable cause.
    pub message: String,
    /// `true` when disk state no longer matches what a rolled-back caller
    /// holds in memory — the tenant must be quarantined until a restart
    /// re-runs recovery.
    pub quarantine: bool,
}

impl AppendError {
    fn clean(message: String) -> AppendError {
        AppendError {
            message,
            quarantine: false,
        }
    }

    fn crash(message: String) -> AppendError {
        AppendError {
            message,
            quarantine: true,
        }
    }
}

fn write_fresh_wal(path: &Path) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(WAL_MAGIC)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir)?;
    }
    Ok(())
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync makes the rename itself durable on POSIX systems;
    // opening a directory read-only is not portable everywhere, so a
    // failure to open is ignored rather than failing the checkpoint.
    if let Ok(d) = File::open(dir) {
        d.sync_all()?;
    }
    Ok(())
}

fn decode_checkpoint(bytes: &[u8]) -> Result<(u64, Vec<WalRecord>), String> {
    if bytes.len() < SNAP_MAGIC.len() + 16 || &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err("checkpoint.snap: bad magic or truncated header".to_string());
    }
    let mut c = Cursor {
        buf: bytes,
        pos: SNAP_MAGIC.len(),
    };
    let version = c.u64().map_err(|e| format!("checkpoint.snap: {e}"))?;
    let count = c.u64().map_err(|e| format!("checkpoint.snap: {e}"))?;
    let mut facts = Vec::new();
    let mut offset = c.pos;
    for i in 0..count {
        match decode_record(&bytes[offset..]) {
            Decoded::Record {
                record, consumed, ..
            } => {
                if !matches!(record, WalRecord::Insert { .. }) {
                    return Err(format!("checkpoint.snap: record {i} is not an insert"));
                }
                facts.push(record);
                offset += consumed;
            }
            // Unlike the WAL, the snapshot was renamed into place as a
            // complete unit: a torn record inside it is real corruption,
            // and serving a silently smaller database would be worse than
            // refusing to start.
            Decoded::Torn(reason) => {
                return Err(format!(
                    "checkpoint.snap: corrupt at record {i}/{count}: {reason}"
                ));
            }
        }
    }
    Ok((version, facts))
}

/// Escape a tenant name into a filesystem-safe directory component:
/// `[A-Za-z0-9_-]` pass through, everything else (including `.`, so `..`
/// cannot traverse) becomes `%XX` per UTF-8 byte.
pub fn escape_tenant(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    if out.is_empty() {
        out.push_str("%empty");
    }
    out
}

/// The directory a tenant's durable state lives in.
pub fn tenant_dir(data_dir: &Path, tenant: &str) -> PathBuf {
    data_dir.join("tenants").join(escape_tenant(tenant))
}

/// What [`scan_wal`] finds: the decoded `(seq, record)` pairs plus the
/// torn-tail reason, if the file does not end on a frame boundary.
pub type WalScan = (Vec<(u64, WalRecord)>, Option<String>);

/// Read one WAL file start to finish without truncating (diagnostics and
/// tests): the decoded records plus the torn-tail reason, if any.
pub fn scan_wal(path: &Path) -> io::Result<WalScan> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(io_err(format!("{}: bad WAL magic", path.display())));
    }
    let mut records = Vec::new();
    let mut offset = WAL_MAGIC.len();
    let torn = loop {
        if offset == bytes.len() {
            break None;
        }
        match decode_record(&bytes[offset..]) {
            Decoded::Record {
                seq,
                record,
                consumed,
            } => {
                records.push((seq, record));
                offset += consumed;
            }
            Decoded::Torn(reason) => break Some(reason),
        }
    };
    Ok((records, torn))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "idlog-durability-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn nat(n: i64) -> Nat {
        Nat::new(n).expect("a natural")
    }

    fn insert(pred: &str, tuple: Vec<FactValue>) -> WalRecord {
        WalRecord::Insert {
            pred: pred.to_string(),
            tuple,
        }
    }

    #[test]
    fn records_round_trip_through_the_frame() {
        let cases = [
            insert(
                "edge",
                vec![FactValue::Sym("a".into()), FactValue::Int(nat(42))],
            ),
            WalRecord::Retract {
                pred: "p".into(),
                tuple: vec![FactValue::Int(nat(0)), FactValue::Int(nat(i64::MAX))],
            },
            insert("unicode", vec![FactValue::Sym("smile 😀 ok".into())]),
            insert("empty", vec![]),
            WalRecord::SetProgram {
                program: "q(X) :- p(X).".into(),
                output: "q".into(),
            },
        ];
        for (i, record) in cases.iter().enumerate() {
            let frame = encode_record(i as u64 + 1, record);
            match decode_record(&frame) {
                Decoded::Record {
                    seq,
                    record: back,
                    consumed,
                } => {
                    assert_eq!(seq, i as u64 + 1);
                    assert_eq!(&back, record);
                    assert_eq!(consumed, frame.len());
                }
                Decoded::Torn(e) => panic!("{record:?}: {e}"),
            }
        }
    }

    /// The corrupt-tail table: every way a tail can be damaged must decode
    /// to a clean [`Decoded::Torn`], never a panic or a wrong record.
    #[test]
    fn corrupt_tails_stop_cleanly() {
        let frame = encode_record(7, &insert("p", vec![FactValue::Sym("x".into())]));
        // Truncated length prefix (0..8 bytes of header).
        for keep in 0..8 {
            assert!(
                matches!(decode_record(&frame[..keep]), Decoded::Torn(_)),
                "header cut at {keep}"
            );
        }
        // Partial final record: every proper prefix of the payload.
        for keep in 8..frame.len() {
            assert!(
                matches!(decode_record(&frame[..keep]), Decoded::Torn(_)),
                "payload cut at {keep}"
            );
        }
        // Bad CRC: flip one payload bit.
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert_eq!(decode_record(&bad), Decoded::Torn("CRC mismatch".into()));
        // Implausible length prefix.
        let mut huge = frame.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_record(&huge), Decoded::Torn(_)));
        // An integer wider than i64 on disk is refused, not wrapped.
        match decode_record(&int_frame(i64::MAX as i128 + 1)) {
            Decoded::Torn(e) => assert!(e.contains("i64"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    /// A well-formed frame inserting `p(wide)`, with whatever 16-byte
    /// integer `wide` is.
    fn int_frame(wide: i128) -> Vec<u8> {
        let mut payload = 9u64.to_le_bytes().to_vec();
        payload.push(KIND_INSERT);
        put_bytes(&mut payload, b"p");
        payload.extend_from_slice(&1u16.to_le_bytes());
        payload.push(TAG_INT);
        payload.extend_from_slice(&wide.to_le_bytes());
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        framed
    }

    #[test]
    fn negative_integers_on_disk_are_refused_as_torn() {
        for wide in [-1, i128::from(i64::MIN), i128::MIN] {
            match decode_record(&int_frame(wide)) {
                Decoded::Torn(e) => assert!(e.contains(&format!("integer {wide} is not")), "{e}"),
                other => panic!("{other:?}"),
            }
        }
        // The largest natural still decodes.
        match decode_record(&int_frame(i64::MAX.into())) {
            Decoded::Record { record, .. } => {
                assert_eq!(record, insert("p", vec![FactValue::Int(nat(i64::MAX))]))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn append_recover_round_trips_and_truncates_torn_tails() {
        let dir = temp_dir("roundtrip");
        let (mut store, recovery) = TenantStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(recovery.version, 0);
        assert!(recovery.ops.is_empty());
        let a = insert(
            "e",
            vec![FactValue::Sym("a".into()), FactValue::Sym("b".into())],
        );
        let b = insert(
            "e",
            vec![FactValue::Sym("b".into()), FactValue::Sym("c".into())],
        );
        let r = WalRecord::Retract {
            pred: "e".into(),
            tuple: vec![FactValue::Sym("a".into()), FactValue::Sym("b".into())],
        };
        assert_eq!(store.append(&a).unwrap(), 1);
        assert_eq!(store.append(&b).unwrap(), 2);
        assert_eq!(store.append(&r).unwrap(), 3);
        drop(store);

        // Clean reopen: all three records, in order.
        let (store, recovery) = TenantStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(recovery.version, 3);
        assert_eq!(recovery.ops, vec![a.clone(), b.clone(), r.clone()]);
        assert!(recovery.truncated_tail.is_none());
        drop(store);

        // Tear the tail: drop the last 3 bytes of the file.
        let wal_path = dir.join("wal.log");
        let len = fs::metadata(&wal_path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let (store, recovery) = TenantStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(recovery.version, 2, "torn third record dropped");
        assert_eq!(recovery.ops, vec![a.clone(), b.clone()]);
        assert!(recovery.truncated_tail.is_some());
        // The truncation is durable: the file now ends at record 2 and a
        // fresh append gets sequence 3.
        let (records, torn) = scan_wal(&wal_path).unwrap();
        assert_eq!(records.len(), 2);
        assert!(torn.is_none(), "{torn:?}");
        let mut store = store;
        assert_eq!(store.append(&b).unwrap(), 3);
        fs::remove_dir_all(&dir).unwrap();

        // Every fsync policy appends and recovers the same records.
        for policy in [SyncPolicy::Always, SyncPolicy::Batch, SyncPolicy::Never] {
            let dir = temp_dir(policy.name());
            let (mut store, _) = TenantStore::open(&dir, policy).unwrap();
            for record in [&a, &b, &r] {
                store.append(record).unwrap();
            }
            drop(store);
            let (_, recovery) = TenantStore::open(&dir, policy).unwrap();
            assert_eq!(recovery.ops, vec![a.clone(), b.clone(), r.clone()]);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_recovery_prefers_it() {
        let dir = temp_dir("checkpoint");
        let (mut store, _) = TenantStore::open(&dir, SyncPolicy::Batch).unwrap();
        let mut facts = Vec::new();
        for i in 0..10i64 {
            let rec = insert("p", vec![FactValue::Int(nat(i))]);
            store.append(&rec).unwrap();
            facts.push(("p".to_string(), vec![FactValue::Int(nat(i))]));
        }
        assert_eq!(store.since_checkpoint(), 10);
        store.checkpoint(10, &facts).unwrap();
        assert_eq!(store.since_checkpoint(), 0);
        // The WAL restarted empty…
        let (records, torn) = scan_wal(&dir.join("wal.log")).unwrap();
        assert!(records.is_empty() && torn.is_none());
        // …and two more appends land after the checkpoint.
        store
            .append(&insert("p", vec![FactValue::Int(nat(10))]))
            .unwrap();
        store
            .append(&insert("p", vec![FactValue::Int(nat(11))]))
            .unwrap();
        drop(store);

        let (_, recovery) = TenantStore::open(&dir, SyncPolicy::Batch).unwrap();
        assert_eq!(recovery.checkpoint_version, 10);
        assert_eq!(recovery.version, 12);
        assert_eq!(recovery.wal_replayed, 2);
        assert_eq!(recovery.ops.len(), 12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenant_names_cannot_escape_the_data_dir() {
        assert_eq!(escape_tenant("acme"), "acme");
        assert_eq!(escape_tenant(".."), "%2E%2E");
        assert_eq!(escape_tenant("a/b"), "a%2Fb");
        assert_eq!(escape_tenant(""), "%empty");
        assert_eq!(escape_tenant("a b😀"), "a%20b%F0%9F%98%80");
        let dir = tenant_dir(Path::new("/data"), "../../etc");
        assert!(dir.starts_with("/data/tenants"), "{}", dir.display());
        assert!(!dir.to_string_lossy().contains(".."));
    }
}
