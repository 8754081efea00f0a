//! Crash-durable disk-backed fingerprint store — the mapping service's
//! L2 cache.
//!
//! The paper's premise is that a multi-level cache hierarchy keeps hot
//! data close across disruptions; the serving layer gets the same
//! treatment here. An [`L2Store`] persists `fingerprint → payload`
//! records (the service stores canonical `MappedProgram` JSON) in
//! **append-only segment files** so a restarted server recovers its
//! working set instead of recomputing it:
//!
//! * every record carries an FNV-1a/64 checksum over its entire body —
//!   a bit flip anywhere invalidates exactly that record, at recovery
//!   *and* on every read;
//! * recovery is **torn-tail tolerant**: scanning stops at the first
//!   invalid record, the file is truncated back to the last valid one,
//!   and the store always opens (a crash mid-append never bricks it);
//! * the in-memory index is rebuilt from the segments on open — there is
//!   no separate index file to corrupt;
//! * segments are sealed (fsync + rotate) past a size threshold, so a
//!   crash loses at most the unsynced tail of the active segment;
//! * invalidation is durable: deletes and scope-wide invalidations
//!   (keyed on the `(platform, version)` fingerprint) are tombstone
//!   records replayed in order at recovery, so a restart cannot
//!   resurrect entries invalidated before the crash;
//! * entries expire after a TTL, checked lazily on `get` and swept at
//!   open.
//!
//! Record layout (little-endian, `HEADER_LEN` = 52 bytes):
//!
//! ```text
//! magic   u32   0x4c32_4543 ("CEL2")
//! kind    u8    1 = put, 2 = delete, 3 = delete-scope
//! pad     3×u8  zero
//! key     16 B  record fingerprint (zero for delete-scope)
//! scope   16 B  (platform, version) fingerprint
//! created u64   unix seconds at append
//! len     u32   payload byte count (0 for tombstones)
//! payload len B
//! sum     u64   FNV-1a/64 of every preceding byte of the record
//! ```

use cachemap_util::{Fingerprint, FxHashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: u32 = 0x4c32_4543;
const HEADER_LEN: usize = 4 + 1 + 3 + 16 + 16 + 8 + 4;
const TRAILER_LEN: usize = 8;

const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_DELETE_SCOPE: u8 = 3;

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut state = FNV64_OFFSET;
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV64_PRIME);
    }
    state
}

/// Tuning knobs for an [`L2Store`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L2Config {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Entry time-to-live in seconds; `0` disables expiry.
    pub ttl_secs: u64,
    /// Active-segment size (bytes) past which it is sealed (fsync +
    /// rotate to a fresh segment).
    pub segment_bytes: u64,
}

impl L2Config {
    /// A config with the given directory and the default TTL (1 day) and
    /// segment size (8 MiB).
    pub fn at<P: Into<PathBuf>>(dir: P) -> Self {
        L2Config {
            dir: dir.into(),
            ttl_secs: 86_400,
            segment_bytes: 8 << 20,
        }
    }
}

/// Where one live record sits on disk.
struct IndexEntry {
    segment: u64,
    /// Byte offset of the record header within the segment.
    offset: u64,
    /// Payload byte count.
    len: u32,
    created: u64,
    scope: Fingerprint,
}

/// Counters describing what recovery found (surfaced in service stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Valid records replayed (puts and tombstones).
    pub records_replayed: u64,
    /// Segments whose tail was truncated past the last valid record.
    pub segments_truncated: u64,
    /// Bytes discarded by torn-tail truncation.
    pub bytes_truncated: u64,
    /// Entries dropped at open because their TTL had expired.
    pub entries_expired: u64,
}

/// A crash-durable, append-only fingerprint→bytes store.
pub struct L2Store {
    cfg: L2Config,
    index: FxHashMap<Fingerprint, IndexEntry>,
    /// Open read handles per segment (including the active one).
    readers: FxHashMap<u64, File>,
    active_id: u64,
    active: File,
    active_len: u64,
    recovery: RecoveryStats,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.log"))
}

/// One decoded record during the recovery scan.
struct Decoded {
    kind: u8,
    key: Fingerprint,
    scope: Fingerprint,
    created: u64,
    len: u32,
    /// Total encoded size (header + payload + trailer).
    total: usize,
}

/// Decodes and checksum-validates the record starting at `buf[off..]`.
fn decode_record(buf: &[u8], off: usize) -> Option<Decoded> {
    let rest = &buf[off..];
    if rest.len() < HEADER_LEN + TRAILER_LEN {
        return None;
    }
    if u32::from_le_bytes(rest[0..4].try_into().unwrap()) != MAGIC {
        return None;
    }
    let kind = rest[4];
    if !(KIND_PUT..=KIND_DELETE_SCOPE).contains(&kind) {
        return None;
    }
    let key = Fingerprint(u128::from_le_bytes(rest[8..24].try_into().unwrap()));
    let scope = Fingerprint(u128::from_le_bytes(rest[24..40].try_into().unwrap()));
    let created = u64::from_le_bytes(rest[40..48].try_into().unwrap());
    let len = u32::from_le_bytes(rest[48..52].try_into().unwrap());
    let total = HEADER_LEN + len as usize + TRAILER_LEN;
    if rest.len() < total {
        return None;
    }
    let sum = u64::from_le_bytes(rest[total - TRAILER_LEN..total].try_into().unwrap());
    if fnv64(&rest[..total - TRAILER_LEN]) != sum {
        return None;
    }
    Some(Decoded {
        kind,
        key,
        scope,
        created,
        len,
        total,
    })
}

/// Encodes one record (any kind) into a fresh buffer.
fn encode_record(
    kind: u8,
    key: Fingerprint,
    scope: Fingerprint,
    created: u64,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(&[0u8; 3]);
    buf.extend_from_slice(&key.0.to_le_bytes());
    buf.extend_from_slice(&scope.0.to_le_bytes());
    buf.extend_from_slice(&created.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

impl L2Store {
    /// Opens (or creates) the store, rebuilding the index from the
    /// segment files. Corrupt or torn data is truncated away — recovery
    /// never refuses to start over bad record bytes. `now_secs` drives
    /// the TTL sweep of recovered entries.
    pub fn open(cfg: L2Config, now_secs: u64) -> std::io::Result<L2Store> {
        std::fs::create_dir_all(&cfg.dir)?;
        let mut ids: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(&cfg.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();

        let mut index: FxHashMap<Fingerprint, IndexEntry> = FxHashMap::default();
        let mut recovery = RecoveryStats::default();
        let mut last_len = 0u64;
        for &id in &ids {
            let path = segment_path(&cfg.dir, id);
            let mut buf = Vec::new();
            File::open(&path)?.read_to_end(&mut buf)?;
            let mut off = 0usize;
            while off < buf.len() {
                let Some(rec) = decode_record(&buf, off) else {
                    // Torn tail or bit-flipped record: drop everything
                    // from here on (append-only order means nothing
                    // after a bad record can be trusted).
                    recovery.segments_truncated += 1;
                    recovery.bytes_truncated += (buf.len() - off) as u64;
                    OpenOptions::new()
                        .write(true)
                        .open(&path)?
                        .set_len(off as u64)?;
                    buf.truncate(off);
                    break;
                };
                match rec.kind {
                    KIND_PUT => {
                        index.insert(
                            rec.key,
                            IndexEntry {
                                segment: id,
                                offset: off as u64,
                                len: rec.len,
                                created: rec.created,
                                scope: rec.scope,
                            },
                        );
                    }
                    KIND_DELETE => {
                        index.remove(&rec.key);
                    }
                    _ => {
                        index.retain(|_, e| e.scope != rec.scope);
                    }
                }
                recovery.records_replayed += 1;
                off += rec.total;
            }
            last_len = buf.len() as u64;
        }

        // TTL sweep of what recovery kept.
        if cfg.ttl_secs > 0 {
            let before = index.len();
            index.retain(|_, e| now_secs < e.created.saturating_add(cfg.ttl_secs));
            recovery.entries_expired = (before - index.len()) as u64;
        }

        let active_id = ids.last().copied().unwrap_or(0);
        let active_path = segment_path(&cfg.dir, active_id);
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active_path)?;
        let active_len = if ids.is_empty() { 0 } else { last_len };
        Ok(L2Store {
            cfg,
            index,
            readers: FxHashMap::default(),
            active_id,
            active,
            active_len,
            recovery,
        })
    }

    /// What recovery found when this store was opened.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Number of live (indexed, unexpired-at-last-touch) records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no record is live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Appends `key → payload` under `scope`. The record is durable
    /// against process crash once the segment seals (or [`L2Store::flush`]
    /// runs); until then it survives in the OS page cache.
    pub fn put(
        &mut self,
        key: Fingerprint,
        scope: Fingerprint,
        payload: &[u8],
        now_secs: u64,
    ) -> std::io::Result<()> {
        let rec = encode_record(KIND_PUT, key, scope, now_secs, payload);
        let offset = self.active_len;
        self.active.write_all(&rec)?;
        self.active_len += rec.len() as u64;
        self.index.insert(
            key,
            IndexEntry {
                segment: self.active_id,
                offset,
                len: payload.len() as u32,
                created: now_secs,
                scope,
            },
        );
        if self.active_len >= self.cfg.segment_bytes {
            self.seal()?;
        }
        Ok(())
    }

    /// Looks `key` up, verifying TTL and the on-disk checksum. A record
    /// that expired, vanished, or fails its checksum (bit flip after the
    /// recovery scan) is dropped from the index and reported as a miss —
    /// the store never returns corrupt bytes.
    pub fn get(&mut self, key: &Fingerprint, now_secs: u64) -> Option<Vec<u8>> {
        let entry = self.index.get(key)?;
        if self.cfg.ttl_secs > 0 && now_secs >= entry.created.saturating_add(self.cfg.ttl_secs) {
            self.index.remove(key);
            return None;
        }
        let (segment, offset, len) = (entry.segment, entry.offset, entry.len);
        let total = HEADER_LEN + len as usize + TRAILER_LEN;
        let mut buf = vec![0u8; total];
        let read_ok = self
            .reader(segment)
            .and_then(|f| {
                f.seek(SeekFrom::Start(offset))?;
                f.read_exact(&mut buf)
            })
            .is_ok();
        let valid =
            read_ok && decode_record(&buf, 0).is_some_and(|r| r.kind == KIND_PUT && r.key == *key);
        if !valid {
            self.index.remove(key);
            return None;
        }
        Some(buf[HEADER_LEN..HEADER_LEN + len as usize].to_vec())
    }

    /// Durably removes `key`: drops it from the index and appends a
    /// tombstone so recovery cannot resurrect it.
    pub fn invalidate(&mut self, key: Fingerprint, now_secs: u64) -> std::io::Result<()> {
        if self.index.remove(&key).is_none() {
            return Ok(());
        }
        let rec = encode_record(KIND_DELETE, key, Fingerprint(0), now_secs, &[]);
        self.active.write_all(&rec)?;
        self.active_len += rec.len() as u64;
        Ok(())
    }

    /// Durably removes every record under `scope` (the `(platform,
    /// version)` fingerprint) — the invalidation hook for platform
    /// reconfiguration. One tombstone covers the whole scope.
    pub fn invalidate_scope(&mut self, scope: Fingerprint, now_secs: u64) -> std::io::Result<()> {
        self.index.retain(|_, e| e.scope != scope);
        let rec = encode_record(KIND_DELETE_SCOPE, Fingerprint(0), scope, now_secs, &[]);
        self.active.write_all(&rec)?;
        self.active_len += rec.len() as u64;
        Ok(())
    }

    /// Seals the active segment: fsync it and rotate to a fresh one.
    pub fn seal(&mut self) -> std::io::Result<()> {
        self.active.sync_all()?;
        self.active_id += 1;
        self.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.cfg.dir, self.active_id))?;
        self.active_len = 0;
        Ok(())
    }

    /// Fsyncs the active segment without rotating — the drain-time
    /// "flush dirty segments" step.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.active.sync_all()
    }

    fn reader(&mut self, segment: u64) -> std::io::Result<&mut File> {
        use std::collections::hash_map::Entry;
        match self.readers.entry(segment) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let f = File::open(segment_path(&self.cfg.dir, segment))?;
                Ok(e.insert(f))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cachemap-l2-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn put_get_survive_reopen() {
        let dir = temp_dir("reopen");
        let cfg = L2Config::at(&dir);
        {
            let mut s = L2Store::open(cfg.clone(), 100).unwrap();
            s.put(fp(1), fp(9), b"alpha", 100).unwrap();
            s.put(fp(2), fp(9), b"beta", 101).unwrap();
            s.flush().unwrap();
        }
        let mut s = L2Store::open(cfg, 102).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&fp(1), 102).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(s.get(&fp(2), 102).as_deref(), Some(&b"beta"[..]));
        assert_eq!(s.get(&fp(3), 102), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_put_wins_and_tombstones_are_durable() {
        let dir = temp_dir("tomb");
        let cfg = L2Config::at(&dir);
        {
            let mut s = L2Store::open(cfg.clone(), 10).unwrap();
            s.put(fp(1), fp(9), b"old", 10).unwrap();
            s.put(fp(1), fp(9), b"new", 11).unwrap();
            s.put(fp(2), fp(9), b"dead", 11).unwrap();
            s.invalidate(fp(2), 12).unwrap();
            s.flush().unwrap();
        }
        let mut s = L2Store::open(cfg, 13).unwrap();
        assert_eq!(s.get(&fp(1), 13).as_deref(), Some(&b"new"[..]));
        assert_eq!(s.get(&fp(2), 13), None, "tombstone must survive restart");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scope_invalidation_is_durable_and_selective() {
        let dir = temp_dir("scope");
        let cfg = L2Config::at(&dir);
        {
            let mut s = L2Store::open(cfg.clone(), 10).unwrap();
            s.put(fp(1), fp(100), b"a", 10).unwrap();
            s.put(fp(2), fp(100), b"b", 10).unwrap();
            s.put(fp(3), fp(200), b"c", 10).unwrap();
            s.invalidate_scope(fp(100), 11).unwrap();
            assert_eq!(s.len(), 1);
            s.flush().unwrap();
        }
        let mut s = L2Store::open(cfg, 12).unwrap();
        assert_eq!(s.get(&fp(1), 12), None);
        assert_eq!(s.get(&fp(2), 12), None);
        assert_eq!(s.get(&fp(3), 12).as_deref(), Some(&b"c"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ttl_expires_lazily_and_at_open() {
        let dir = temp_dir("ttl");
        let cfg = L2Config {
            ttl_secs: 10,
            ..L2Config::at(&dir)
        };
        let mut s = L2Store::open(cfg.clone(), 0).unwrap();
        s.put(fp(1), fp(9), b"x", 0).unwrap();
        assert!(s.get(&fp(1), 9).is_some());
        assert!(s.get(&fp(1), 10).is_none(), "lazy expiry on get");
        s.put(fp(2), fp(9), b"y", 20).unwrap();
        s.flush().unwrap();
        drop(s);
        let mut s = L2Store::open(cfg, 29).unwrap();
        assert_eq!(s.len(), 1, "open-time sweep expires aged entries");
        assert_eq!(s.recovery_stats().entries_expired, 1);
        assert!(s.get(&fp(2), 29).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = temp_dir("torn");
        let cfg = L2Config::at(&dir);
        {
            let mut s = L2Store::open(cfg.clone(), 5).unwrap();
            s.put(fp(1), fp(9), b"whole", 5).unwrap();
            s.put(fp(2), fp(9), b"torn-away", 5).unwrap();
            s.flush().unwrap();
        }
        // Chop 3 bytes off the tail, mid-record.
        let path = segment_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let mut s = L2Store::open(cfg, 6).unwrap();
        assert_eq!(s.get(&fp(1), 6).as_deref(), Some(&b"whole"[..]));
        assert_eq!(s.get(&fp(2), 6), None, "torn record must be dropped");
        assert_eq!(s.recovery_stats().segments_truncated, 1);
        assert!(s.recovery_stats().bytes_truncated > 0);
        // The truncated file accepts fresh appends cleanly.
        s.put(fp(3), fp(9), b"after", 6).unwrap();
        drop(s);
        let mut s = L2Store::open(L2Config::at(&dir), 7).unwrap();
        assert_eq!(s.get(&fp(3), 7).as_deref(), Some(&b"after"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_all_remain_readable() {
        let dir = temp_dir("rotate");
        let cfg = L2Config {
            segment_bytes: 128, // tiny: force rotation every couple of puts
            ..L2Config::at(&dir)
        };
        let mut s = L2Store::open(cfg.clone(), 0).unwrap();
        for i in 0..20u128 {
            s.put(fp(i), fp(9), format!("payload-{i}").as_bytes(), 0)
                .unwrap();
        }
        assert!(s.active_id > 0, "rotation must have happened");
        for i in 0..20u128 {
            assert_eq!(
                s.get(&fp(i), 1).as_deref(),
                Some(format!("payload-{i}").as_bytes()),
                "record {i}"
            );
        }
        drop(s);
        let mut s = L2Store::open(cfg, 1).unwrap();
        assert_eq!(s.len(), 20);
        assert_eq!(s.get(&fp(19), 1).as_deref(), Some(&b"payload-19"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_caught_on_read() {
        let dir = temp_dir("flip");
        let cfg = L2Config::at(&dir);
        let mut s = L2Store::open(cfg, 0).unwrap();
        s.put(fp(1), fp(9), b"pristine-payload", 0).unwrap();
        s.flush().unwrap();
        // Flip one payload bit behind the store's back.
        let path = segment_path(s.cfg.dir.as_path(), 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let k = HEADER_LEN + 4;
        bytes[k] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        s.readers.clear(); // drop cached handles so the flip is visible
        assert_eq!(s.get(&fp(1), 1), None, "corrupt record must be a miss");
        assert_eq!(s.len(), 0, "corrupt record must leave the index");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
