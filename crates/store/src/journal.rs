//! The append-only, checksummed write-ahead journal.
//!
//! # On-disk format
//!
//! A journal is a sequence of framed records, one per line:
//!
//! ```text
//! RTLJ <crc32:8 hex> <len:decimal> <payload:len bytes>\n
//! ```
//!
//! The payload is an [`Event`] encoded by
//! [`Event::encode`](crate::Event::encode) — escaped, so it contains no
//! raw newline; the CRC32 (IEEE, reflected) is computed over exactly the
//! payload bytes. Records are written with a single `write` call and
//! fsynced before [`Journal::append`] returns, so a record either exists
//! completely or is a *torn tail* the next recovery drops.
//!
//! # Recovery protocol
//!
//! [`Journal::open`] scans the file from the start:
//!
//! * every well-framed, checksum-valid record becomes an event;
//! * a record that fails framing or checksumming **at the end of the
//!   file** is a torn tail (the crash landed mid-append) — dropped,
//!   reported via [`Recovery::torn_tail`];
//! * a corrupt record **in the middle** poisons everything after it:
//!   recovery stops there (replaying records that follow a corruption
//!   would resurrect state the corrupted record may have superseded) and
//!   reports the count of dropped bytes;
//! * in both cases the file is truncated back to its last durable record
//!   before the journal accepts new appends, so a resumed campaign's
//!   appends continue a well-formed log. Consumers must therefore treat
//!   replay as *at-least-once*: a unit whose completion record was torn
//!   re-executes, and duplicate completion records (from resume-after-
//!   resume) must be idempotent (last record wins).

use crate::wire::Event;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// What [`Journal::open`] found in an existing journal file.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Every durable event, in append order.
    pub events: Vec<Event>,
    /// Whether a torn (half-written) final record was dropped.
    pub torn_tail: bool,
    /// Byte offset of the first corrupt/torn record, when anything was
    /// dropped. The file was truncated back to this offset.
    pub truncated_at: Option<u64>,
    /// Bytes dropped by the truncation (0 on a clean open).
    pub dropped_bytes: u64,
}

/// An open journal handle positioned for appends.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Whether appends fsync before returning (on by default; tests that
    /// write thousands of records may disable it).
    sync: bool,
    appended: u64,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path`, recovering every
    /// durable record and truncating any torn or corrupt suffix.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. Corruption is *not* an error — it is
    /// reported through [`Recovery`].
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Journal, Recovery)> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;

        let (events, good_len, torn_tail) = scan(&bytes);
        let mut recovery = Recovery { events, ..Recovery::default() };
        if (good_len as u64) < bytes.len() as u64 {
            recovery.torn_tail = torn_tail;
            recovery.truncated_at = Some(good_len as u64);
            recovery.dropped_bytes = bytes.len() as u64 - good_len as u64;
            file.set_len(good_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((Journal { path, file, sync: true, appended: 0 }, recovery))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Disables (or re-enables) the per-append fsync. Appends are still
    /// single `write` calls, so framing integrity is unaffected — only
    /// power-loss durability of the most recent records.
    pub fn set_sync(&mut self, sync: bool) {
        self.sync = sync;
    }

    /// Records appended through this handle (not counting recovery).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends one event durably: a single framed write followed by an
    /// fsync (unless [`set_sync`](Journal::set_sync) disabled it).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the record may be torn, and
    /// the next [`Journal::open`] will drop it.
    pub fn append(&mut self, event: &Event) -> std::io::Result<()> {
        let payload = event.encode();
        let record =
            format!("RTLJ {:08X} {} {}\n", crc32(payload.as_bytes()), payload.len(), payload);
        self.file.write_all(record.as_bytes())?;
        if self.sync {
            self.file.sync_data()?;
        }
        self.appended += 1;
        Ok(())
    }
}

/// Parses the longest valid record prefix of `bytes`. Returns the events,
/// the byte length of that prefix, and whether the remainder looks like a
/// torn tail (truncated mid-record with no newline after it) rather than
/// a checksum corruption followed by more data.
fn scan(bytes: &[u8]) -> (Vec<Event>, usize, bool) {
    let mut events = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match parse_record(&bytes[pos..]) {
            Ok((event, consumed)) => {
                events.push(event);
                pos += consumed;
            }
            Err(incomplete) => {
                // `incomplete` = the record ran off the end of the buffer
                // (classic torn append). Anything else — bad magic, bad
                // checksum, bad framing with bytes to spare — is
                // corruption.
                return (events, pos, incomplete);
            }
        }
    }
    (events, pos, false)
}

/// Parses one record at the start of `bytes`. `Ok((event, consumed))` on
/// success; `Err(true)` when the buffer ends before the record does
/// (torn), `Err(false)` on structural/checksum corruption.
fn parse_record(bytes: &[u8]) -> Result<(Event, usize), bool> {
    const MAGIC: &[u8] = b"RTLJ ";
    if bytes.len() < MAGIC.len() {
        return Err(bytes == &MAGIC[..bytes.len()]);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(false);
    }
    let mut pos = MAGIC.len();
    // 8 hex digits + space.
    if bytes.len() < pos + 9 {
        return Err(true);
    }
    let crc_hex = std::str::from_utf8(&bytes[pos..pos + 8]).map_err(|_| false)?;
    let expect_crc = u32::from_str_radix(crc_hex, 16).map_err(|_| false)?;
    if bytes[pos + 8] != b' ' {
        return Err(false);
    }
    pos += 9;
    // Decimal length + space.
    let len_end = bytes[pos..]
        .iter()
        .position(|&b| b == b' ')
        .map(|i| pos + i)
        .ok_or(bytes.len() - pos <= 20)?; // a plausible length field is short
    let len: usize = std::str::from_utf8(&bytes[pos..len_end])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(false)?;
    pos = len_end + 1;
    if bytes.len() < pos + len + 1 {
        return Err(true);
    }
    let payload = &bytes[pos..pos + len];
    if bytes[pos + len] != b'\n' {
        return Err(false);
    }
    if crc32(payload) != expect_crc {
        return Err(false);
    }
    let payload = std::str::from_utf8(payload).map_err(|_| false)?;
    let event = Event::decode(payload).map_err(|_| false)?;
    Ok((event, pos + len + 1))
}

/// CRC32 (IEEE 802.3, reflected) — the ubiquitous zlib polynomial,
/// computed bytewise; no table needed at journal event rates.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rtlock_journal_{tag}_{}.j", std::process::id()))
    }

    fn write_events(path: &Path, n: usize) {
        let (mut j, _) = Journal::open(path).unwrap();
        j.set_sync(false);
        for i in 0..n {
            j.append(&Event::new("unit_finished").field("unit", format!("u{i}")).field("idx", i.to_string()))
                .unwrap();
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn empty_journal_recovers_to_nothing() {
        let path = temp_path("empty");
        let _ = std::fs::remove_file(&path);
        let (_, rec) = Journal::open(&path).unwrap();
        assert!(rec.events.is_empty());
        assert!(!rec.torn_tail);
        assert_eq!(rec.truncated_at, None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_then_recover_roundtrips_in_order() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        write_events(&path, 5);
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.events.len(), 5);
        assert_eq!(rec.events[3].get("unit"), Some("u3"));
        assert_eq!(rec.dropped_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_final_record_is_dropped_and_healed() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        write_events(&path, 4);
        // Tear the last record: chop off its final 3 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut j, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.events.len(), 3, "torn record dropped");
        assert!(rec.torn_tail);
        assert!(rec.dropped_bytes > 0);
        // The file healed: appending continues a well-formed log.
        j.append(&Event::new("unit_finished").field("unit", "u3b")).unwrap();
        drop(j);
        let (_, rec2) = Journal::open(&path).unwrap();
        assert_eq!(rec2.events.len(), 4);
        assert_eq!(rec2.events[3].get("unit"), Some("u3b"));
        assert_eq!(rec2.dropped_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_corrupt_middle_record_truncates_the_suffix() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        write_events(&path, 5);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the middle (third) record.
        let record_len = bytes.len() / 5;
        bytes[2 * record_len + record_len / 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Journal::open(&path).unwrap();
        assert_eq!(rec.events.len(), 2, "recovery stops at the corruption");
        assert!(!rec.torn_tail, "mid-file corruption is not a torn tail");
        assert_eq!(rec.truncated_at, Some((2 * record_len) as u64));
        assert_eq!(rec.dropped_bytes as usize, bytes.len() - 2 * record_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_file_recovers_to_nothing() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"not a journal at all\nstill not one\n").unwrap();
        let (_, rec) = Journal::open(&path).unwrap();
        assert!(rec.events.is_empty());
        assert_eq!(rec.truncated_at, Some(0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_append_recover_is_idempotent() {
        let path = temp_path("rar");
        let _ = std::fs::remove_file(&path);
        write_events(&path, 3);
        // First recovery + append (a "resume").
        let (mut j, rec1) = Journal::open(&path).unwrap();
        assert_eq!(rec1.events.len(), 3);
        j.append(&Event::new("unit_finished").field("unit", "u1").field("idx", "1")).unwrap();
        drop(j);
        // Second recovery (a resume-after-resume): the duplicate
        // unit_finished for u1 is preserved; consumers take the last.
        let (_, rec2) = Journal::open(&path).unwrap();
        assert_eq!(rec2.events.len(), 4);
        let u1: Vec<_> = rec2.events.iter().filter(|e| e.get("unit") == Some("u1")).collect();
        assert_eq!(u1.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
