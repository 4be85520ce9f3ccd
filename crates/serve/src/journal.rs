//! Write-ahead journal for warm restarts (DESIGN.md §11.3).
//!
//! The runtime's durable state is small and additive: which kernels
//! are registered (by source + layout, so the artifact store can
//! rebuild them), and each tenant's admission-relevant accounting —
//! quota, cycles charged, quarantine strikes. Mutations are committed
//! here in groups *while the state lock is held*: one commit per wave
//! (its charges, strikes and quarantines) and one per operator action,
//! each a single write plus, when syncing, a single `sync_data`
//! ([`JournalWriter::append_all`]). The runtime delivers a result only
//! after the commit that covers its records, so a crash loses only the
//! charges of jobs whose results were never delivered. [`replay`] reads
//! the records back so a restarted service admits and refuses exactly
//! like the one that died.
//!
//! ## Framing
//!
//! ```text
//! record = u32 payload_len | u32 crc32(payload) | payload
//! payload = u8 tag | fields (little-endian, u32-length-prefixed strings)
//! ```
//!
//! A crash can tear the last record (partial write); [`replay`] treats
//! any record that fails the length, CRC, or decode check as the torn
//! tail: everything before it is the replayed state, everything from
//! it on is discarded (the caller truncates the file to
//! [`Replay::valid_bytes`] before appending again). Torn tails are the
//! *expected* crash artifact — they are reported, not errored.
//!
//! Journal appends are deliberately infallible at the call site: a
//! full disk mid-flight marks the writer dead (future restarts lose
//! recency, which the operator is told about once) rather than turning
//! every job completion into an error. Durability is best-effort;
//! *integrity* of what was durably written is not.

use crate::error::ServeError;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use udp_asm::LayoutOptions;
use udp_store::crc32;

/// Cap on one record's payload (a registered kernel's source dominates;
/// 32 MB is far past any real program text).
pub const MAX_RECORD: usize = 32 << 20;

const TAG_REGISTER_KERNEL: u8 = 1;
const TAG_SET_QUOTA: u8 = 2;
const TAG_CHARGE: u8 = 3;
const TAG_STRIKE: u8 = 4;
const TAG_QUARANTINE: u8 = 5;
const TAG_RELEASE: u8 = 6;
const TAG_REFILL: u8 = 7;

/// One durable state mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A kernel was registered from the artifact store. Carries the
    /// full provenance — source text, layout, fallback tag — so replay
    /// can rebuild the artifact even if the store was wiped.
    RegisterKernel {
        /// Service-visible kernel name.
        name: String,
        /// Canonical `udp-asm` source text.
        source: String,
        /// Layout the source is assembled under.
        layout: LayoutOptions,
        /// `ReferenceFallback::name()` of the builtin fallback to
        /// re-attach on replay, if any.
        fallback: Option<String>,
    },
    /// A tenant's quota was set or replaced.
    SetQuota {
        /// Tenant name.
        tenant: String,
        /// `TenantQuota::max_queued`.
        max_queued: u64,
        /// `TenantQuota::cycle_budget`.
        cycle_budget: Option<u64>,
    },
    /// Modeled cycles were charged to a tenant.
    Charge {
        /// Tenant name.
        tenant: String,
        /// Cycles charged.
        cycles: u64,
    },
    /// A quarantine strike was recorded against a tenant.
    Strike {
        /// Tenant name.
        tenant: String,
    },
    /// The tenant itself was quarantined.
    Quarantine {
        /// Tenant name.
        tenant: String,
    },
    /// An operator lifted a tenant's quarantine (strikes reset).
    Release {
        /// Tenant name.
        tenant: String,
    },
    /// An operator credited cycles back to a tenant's account.
    Refill {
        /// Tenant name.
        tenant: String,
        /// Cycles credited.
        cycles: u64,
    },
}

fn put_str(v: &mut Vec<u8>, s: &str) {
    v.extend_from_slice(&(s.len() as u32).to_le_bytes());
    v.extend_from_slice(s.as_bytes());
}

/// Encodes a record's payload (no framing).
pub fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut v = Vec::new();
    encode_into(rec, &mut v);
    v
}

/// Appends a record's payload (no framing) to `v`.
fn encode_into(rec: &JournalRecord, v: &mut Vec<u8>) {
    match rec {
        JournalRecord::RegisterKernel {
            name,
            source,
            layout,
            fallback,
        } => {
            v.push(TAG_REGISTER_KERNEL);
            put_str(v, name);
            put_str(v, source);
            v.extend_from_slice(&(layout.window_words as u64).to_le_bytes());
            v.push(u8::from(layout.share_actions));
            v.push(u8::from(layout.uap_attach));
            v.push(u8::from(layout.self_check));
            match fallback {
                Some(tag) => {
                    v.push(1);
                    put_str(v, tag);
                }
                None => v.push(0),
            }
        }
        JournalRecord::SetQuota {
            tenant,
            max_queued,
            cycle_budget,
        } => {
            v.push(TAG_SET_QUOTA);
            put_str(v, tenant);
            v.extend_from_slice(&max_queued.to_le_bytes());
            match cycle_budget {
                Some(b) => {
                    v.push(1);
                    v.extend_from_slice(&b.to_le_bytes());
                }
                None => v.push(0),
            }
        }
        JournalRecord::Charge { tenant, cycles } => {
            v.push(TAG_CHARGE);
            put_str(v, tenant);
            v.extend_from_slice(&cycles.to_le_bytes());
        }
        JournalRecord::Strike { tenant } => {
            v.push(TAG_STRIKE);
            put_str(v, tenant);
        }
        JournalRecord::Quarantine { tenant } => {
            v.push(TAG_QUARANTINE);
            put_str(v, tenant);
        }
        JournalRecord::Release { tenant } => {
            v.push(TAG_RELEASE);
            put_str(v, tenant);
        }
        JournalRecord::Refill { tenant, cycles } => {
            v.push(TAG_REFILL);
            put_str(v, tenant);
            v.extend_from_slice(&cycles.to_le_bytes());
        }
    }
}

/// A bounds-checked little-endian reader (decode side).
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len())?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Some(u64::from_le_bytes(a))
    }
    fn string(&mut self) -> Option<String> {
        let b = self.take(4)?;
        let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        if len > MAX_RECORD {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
    fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Decodes one record payload. `None` means the bytes are not a valid
/// record (replay treats that as the torn tail).
pub fn decode_record(buf: &[u8]) -> Option<JournalRecord> {
    let mut r = Rd { buf, pos: 0 };
    let rec = match r.u8()? {
        TAG_REGISTER_KERNEL => {
            let name = r.string()?;
            let source = r.string()?;
            let window_words = r.u64()? as usize;
            let share_actions = r.u8()? != 0;
            let uap_attach = r.u8()? != 0;
            let self_check = r.u8()? != 0;
            let fallback = match r.u8()? {
                0 => None,
                1 => Some(r.string()?),
                _ => return None,
            };
            JournalRecord::RegisterKernel {
                name,
                source,
                layout: LayoutOptions {
                    window_words,
                    share_actions,
                    uap_attach,
                    self_check,
                },
                fallback,
            }
        }
        TAG_SET_QUOTA => JournalRecord::SetQuota {
            tenant: r.string()?,
            max_queued: r.u64()?,
            cycle_budget: r.opt_u64()?,
        },
        TAG_CHARGE => JournalRecord::Charge {
            tenant: r.string()?,
            cycles: r.u64()?,
        },
        TAG_STRIKE => JournalRecord::Strike {
            tenant: r.string()?,
        },
        TAG_QUARANTINE => JournalRecord::Quarantine {
            tenant: r.string()?,
        },
        TAG_RELEASE => JournalRecord::Release {
            tenant: r.string()?,
        },
        TAG_REFILL => JournalRecord::Refill {
            tenant: r.string()?,
            cycles: r.u64()?,
        },
        _ => return None,
    };
    if !r.done() {
        return None;
    }
    Some(rec)
}

/// The result of replaying a journal file.
#[derive(Debug)]
pub struct Replay {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte offset of the end of the last intact record — the length
    /// the caller truncates the file to before resuming appends.
    pub valid_bytes: u64,
    /// Why the tail (if any) was discarded: the expected artifact of a
    /// crash mid-append.
    pub torn: Option<String>,
}

/// Replays a journal file. A missing file is an empty journal (cold
/// start); a torn tail is reported, not errored — only I/O failures
/// are. Never panics on hostile bytes.
pub fn replay(path: &Path) -> Result<Replay, ServeError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Replay {
                records: Vec::new(),
                valid_bytes: 0,
                torn: None,
            })
        }
        Err(e) => {
            return Err(ServeError::Store {
                detail: format!("read journal {}: {e}", path.display()),
            })
        }
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut torn = None;
    while pos < bytes.len() {
        let remain = bytes.len() - pos;
        if remain < 8 {
            torn = Some(format!("{remain}-byte partial record header"));
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len > MAX_RECORD {
            torn = Some(format!("implausible record length {len}"));
            break;
        }
        if remain - 8 < len {
            torn = Some(format!(
                "partial record payload ({} of {len} bytes)",
                remain - 8
            ));
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            torn = Some("record checksum mismatch".to_string());
            break;
        }
        let Some(rec) = decode_record(payload) else {
            torn = Some("undecodable record".to_string());
            break;
        };
        records.push(rec);
        pos += 8 + len;
    }
    Ok(Replay {
        records,
        valid_bytes: pos as u64,
        torn,
    })
}

/// Appends framed records to a journal file. Append failures mark the
/// writer dead (reported once on stderr) instead of erroring every
/// caller — see the module docs for why.
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    sync: bool,
    dead: bool,
    /// Framing buffer, reused by every commit.
    buf: Vec<u8>,
    records: u64,
    syncs: u64,
}

impl JournalWriter {
    /// Opens `path` for appending (creating it if needed), truncating
    /// it to `valid_bytes` first — discarding the torn tail [`replay`]
    /// reported.
    pub fn open(
        path: impl AsRef<Path>,
        valid_bytes: u64,
        sync: bool,
    ) -> Result<JournalWriter, ServeError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| ServeError::Store {
                detail: format!("open journal {}: {e}", path.display()),
            })?;
        let len = file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| ServeError::Store {
                detail: format!("stat journal {}: {e}", path.display()),
            })?;
        if len > valid_bytes {
            file.set_len(valid_bytes).map_err(|e| ServeError::Store {
                detail: format!("truncate journal {}: {e}", path.display()),
            })?;
        }
        Ok(JournalWriter {
            file,
            path,
            sync,
            dead: false,
            buf: Vec::new(),
            records: 0,
            syncs: 0,
        })
    }

    /// True once an append has failed; the journal is no longer being
    /// extended (state recency is lost, integrity is not).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Records written by successful commits.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `sync_data` calls that succeeded.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Appends one framed record, best-effort: [`JournalWriter::append_all`]
    /// with one record.
    pub fn append(&mut self, rec: &JournalRecord) {
        self.append_all(std::slice::from_ref(rec));
    }

    /// Commits `recs` as one group, best-effort: every record is framed
    /// into one buffer, written with one `write_all`, and (with `sync`)
    /// made durable by one `sync_data`. The bytes are exactly those of
    /// appending the records one at a time. An empty group is a no-op.
    pub fn append_all(&mut self, recs: &[JournalRecord]) {
        if self.dead || recs.is_empty() {
            return;
        }
        self.buf.clear();
        for rec in recs {
            // Frame in place: reserve the header, encode the payload
            // behind it, then fill in its length and CRC.
            let start = self.buf.len();
            self.buf.extend_from_slice(&[0; 8]);
            encode_into(rec, &mut self.buf);
            let payload = &self.buf[start + 8..];
            let (len, crc) = (payload.len() as u32, crc32(payload));
            self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
            self.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        }
        let wrote = self.file.write_all(&self.buf).and_then(|()| {
            if self.sync {
                self.file.sync_data()?;
                self.syncs += 1;
            }
            Ok(())
        });
        match wrote {
            Ok(()) => self.records += recs.len() as u64,
            Err(e) => {
                self.dead = true;
                eprintln!(
                    "udp-serve: journal {} failed ({e}); state changes are no longer durable",
                    self.path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::RegisterKernel {
                name: "csv".into(),
                source: "state s0 consume\n".into(),
                layout: LayoutOptions::default(),
                fallback: Some("csv-framing".into()),
            },
            JournalRecord::RegisterKernel {
                name: "bare".into(),
                source: "x".into(),
                layout: LayoutOptions::with_banks(4),
                fallback: None,
            },
            JournalRecord::SetQuota {
                tenant: "alice".into(),
                max_queued: 8,
                cycle_budget: Some(1_000_000),
            },
            JournalRecord::SetQuota {
                tenant: "bob".into(),
                max_queued: 64,
                cycle_budget: None,
            },
            JournalRecord::Charge {
                tenant: "alice".into(),
                cycles: 12_345,
            },
            JournalRecord::Strike {
                tenant: "mallory".into(),
            },
            JournalRecord::Quarantine {
                tenant: "mallory".into(),
            },
            JournalRecord::Release {
                tenant: "mallory".into(),
            },
            JournalRecord::Refill {
                tenant: "alice".into(),
                cycles: 500,
            },
        ]
    }

    /// Writes the sample records to a fresh journal at `path`, one
    /// `append` at a time or as one `append_all` group commit.
    fn write_samples(path: &Path, batched: bool) {
        let _ = std::fs::remove_file(path);
        let mut w = JournalWriter::open(path, 0, false).unwrap();
        if batched {
            w.append_all(&sample_records());
        } else {
            for rec in sample_records() {
                w.append(&rec);
            }
        }
        assert!(!w.is_dead());
        assert_eq!(w.records(), sample_records().len() as u64);
        assert_eq!(w.syncs(), 0, "unsynced writer never syncs");
    }

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "udp-journal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn every_record_round_trips() {
        for rec in sample_records() {
            let enc = encode_record(&rec);
            assert_eq!(decode_record(&enc), Some(rec.clone()), "{rec:?}");
            // Truncation at every cut is refused, not panicked on.
            for cut in 0..enc.len() {
                assert_eq!(decode_record(&enc[..cut]), None, "cut {cut} of {rec:?}");
            }
            // Trailing garbage is refused too.
            let mut long = enc.clone();
            long.push(0);
            assert_eq!(decode_record(&long), None);
        }
    }

    #[test]
    fn write_then_replay_is_identity() {
        let path = temp_journal("identity");
        let mut images = Vec::new();
        for batched in [false, true] {
            write_samples(&path, batched);
            let rep = replay(&path).unwrap();
            assert_eq!(rep.records, sample_records(), "batched={batched}");
            assert_eq!(rep.torn, None);
            assert_eq!(
                rep.valid_bytes,
                std::fs::metadata(&path).unwrap().len(),
                "clean journal replays to its full length"
            );
            images.push(std::fs::read(&path).unwrap());
        }
        assert_eq!(
            images[0], images[1],
            "a group commit writes the same bytes as one append per record"
        );
        let framed: Vec<u8> = sample_records()
            .iter()
            .flat_map(|rec| {
                let payload = encode_record(rec);
                let len = (payload.len() as u32).to_le_bytes();
                [&len[..], &crc32(&payload).to_le_bytes(), &payload].concat()
            })
            .collect();
        assert_eq!(images[0], framed, "record = len | crc32(payload) | payload");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tails_are_detected_and_truncated_at_reopen() {
        let path = temp_journal("torn");
        // Per-record appends and one multi-record group commit: a tear
        // inside a group must keep the group's intact prefix too.
        for batched in [false, true] {
            write_samples(&path, batched);
            let full = std::fs::read(&path).unwrap();
            let clean = replay(&path).unwrap();
            assert_eq!(clean.torn, None);

            // Cut the file at every byte: replay must never panic, never
            // lose an intact prefix record, and must flag any real cut.
            for cut in 0..full.len() {
                std::fs::write(&path, &full[..cut]).unwrap();
                let rep = replay(&path).unwrap();
                assert!(rep.records.len() <= clean.records.len());
                assert_eq!(
                    rep.records[..],
                    clean.records[..rep.records.len()],
                    "prefix property at cut {cut} (batched={batched})"
                );
                assert!(rep.valid_bytes <= cut as u64);
                if (cut as u64) != rep.valid_bytes {
                    assert!(rep.torn.is_some(), "cut {cut} left silent garbage");
                }
                // Reopening truncates the torn tail away.
                drop(JournalWriter::open(&path, rep.valid_bytes, false).unwrap());
                assert_eq!(std::fs::metadata(&path).unwrap().len(), rep.valid_bytes);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_middle_record_drops_the_suffix_not_the_prefix() {
        let path = temp_journal("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::open(&path, 0, false).unwrap();
            for rec in sample_records() {
                w.append(&rec);
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay(&path).unwrap();
        assert!(rep.torn.is_some());
        assert!(rep.records.len() < sample_records().len());
        assert_eq!(rep.records[..], sample_records()[..rep.records.len()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_journal_is_a_cold_start() {
        let rep = replay(Path::new("/nonexistent/udp-journal")).unwrap();
        assert!(rep.records.is_empty());
        assert_eq!(rep.valid_bytes, 0);
        assert_eq!(rep.torn, None);
    }
}
