//! Versioned snapshot container for full-machine state.
//!
//! A [`Snapshot`] carries two kinds of payload:
//!
//! * a set of named JSON **sections** (one per architectural block: core,
//!   caches, devices…) built on the crate's own [`Json`] model, with every
//!   `u64` encoded as a hex *string* so values above 2^53 survive the f64
//!   round-trip exactly, and
//! * a compact binary **blob arena** for bulk state (memory pages, cache
//!   line data, register files), referenced from the sections by
//!   offset/length descriptors.
//!
//! The byte format is `HULKVSNP` + format version + header length + header
//! JSON + blob length + blob. [`Snapshot::from_bytes`] schema-checks the
//! magic, the format version and the header shape before any block tries
//! to restore, so a stale or truncated file fails loudly up front instead
//! of deserializing garbage into a core.

use crate::json::Json;
use crate::stats::Stats;
use std::collections::BTreeMap;
use std::fmt;

/// Current snapshot format version. Bump on any incompatible change to the
/// section schema or the blob encodings.
pub const SNAPSHOT_FORMAT: u32 = 1;

const MAGIC: &[u8; 8] = b"HULKVSNP";

/// Page granularity of [`Snapshot::push_pages`] (matches the sparse DRAM
/// storage and the MMU page size).
pub const SNAP_PAGE_SIZE: usize = 4096;

/// A snapshot (de)serialization failure: schema mismatch, missing section,
/// malformed descriptor, or geometry disagreement on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError(pub String);

impl SnapError {
    /// Creates an error from anything displayable.
    pub fn msg(m: impl fmt::Display) -> Self {
        SnapError(m.to_string())
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapError {}

/// Shorthand for snapshot results.
pub type SnapResult<T> = Result<T, SnapError>;

/// Serializes a `u64` as a hex string (exact for the full 64-bit range,
/// unlike [`Json::Num`]'s f64).
pub fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#x}"))
}

/// Parses a value written by [`hex`] (plain numbers are accepted too, for
/// hand-written fixtures).
pub fn unhex(j: &Json) -> SnapResult<u64> {
    match j {
        Json::Str(s) => {
            let t = s.strip_prefix("0x").unwrap_or(s);
            u64::from_str_radix(t, 16).map_err(|e| SnapError::msg(format!("bad hex {s:?}: {e}")))
        }
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Ok(*n as u64),
        other => Err(SnapError::msg(format!("expected hex string, got {other}"))),
    }
}

/// Looks up a required key on a JSON object.
pub fn get<'a>(j: &'a Json, key: &str) -> SnapResult<&'a Json> {
    j.get(key)
        .ok_or_else(|| SnapError::msg(format!("missing field {key:?}")))
}

/// Reads a required hex-encoded `u64` field.
pub fn get_u64(j: &Json, key: &str) -> SnapResult<u64> {
    unhex(get(j, key)?)
}

/// Reads a required boolean field.
pub fn get_bool(j: &Json, key: &str) -> SnapResult<bool> {
    match get(j, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(SnapError::msg(format!(
            "{key:?}: expected bool, got {other}"
        ))),
    }
}

/// Reads a required array field.
pub fn get_arr<'a>(j: &'a Json, key: &str) -> SnapResult<&'a [Json]> {
    get(j, key)?
        .as_arr()
        .ok_or_else(|| SnapError::msg(format!("{key:?}: expected array")))
}

/// Serializes a [`Stats`] registry, keeping zero-valued keys so the restored
/// registry compares equal under [`Stats`]' key-set-sensitive equality.
pub fn stats_to_json(s: &Stats) -> Json {
    Json::obj(
        s.iter()
            .map(|(k, v)| (k.to_owned(), hex(v)))
            .collect::<Vec<_>>(),
    )
}

/// Restores a registry written by [`stats_to_json`]: existing keys (and
/// their [`crate::StatsHandle`]s) are kept and zeroed first, then every
/// recorded key is set to its recorded value.
pub fn restore_stats(stats: &mut Stats, j: &Json) -> SnapResult<()> {
    let Json::Obj(map) = j else {
        return Err(SnapError::msg("stats section is not an object"));
    };
    stats.reset();
    for (k, v) in map {
        stats.set(k, unhex(v)?);
    }
    Ok(())
}

/// A descriptor pointing into the blob arena.
fn blob_desc(off: usize, len: usize) -> Json {
    Json::obj([("off", hex(off as u64)), ("len", hex(len as u64))])
}

/// A versioned, schema-checked machine-state container.
///
/// # Example
///
/// ```
/// use hulkv_sim::snap::{hex, Snapshot};
/// use hulkv_sim::Json;
///
/// let mut s = Snapshot::new();
/// let regs = s.push_blob(&[1, 2, 3, 4]);
/// s.set_section("core", Json::obj([("pc", hex(0x8000_0000)), ("regs", regs)]));
/// let bytes = s.to_bytes();
/// let back = Snapshot::from_bytes(&bytes).unwrap();
/// assert_eq!(back.to_bytes(), bytes);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    sections: BTreeMap<String, Json>,
    blob: Vec<u8>,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::new()
    }
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Snapshot {
            sections: BTreeMap::new(),
            blob: Vec::new(),
        }
    }

    /// Adds (or replaces) a named section.
    pub fn set_section(&mut self, name: impl Into<String>, j: Json) {
        self.sections.insert(name.into(), j);
    }

    /// A required section, by name.
    ///
    /// # Errors
    ///
    /// When the section is absent.
    pub fn section(&self, name: &str) -> SnapResult<&Json> {
        self.sections
            .get(name)
            .ok_or_else(|| SnapError::msg(format!("missing section {name:?}")))
    }

    /// Whether a section exists.
    pub fn has_section(&self, name: &str) -> bool {
        self.sections.contains_key(name)
    }

    /// Section names, sorted.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }

    /// Appends raw bytes to the blob arena, returning their descriptor.
    pub fn push_blob(&mut self, bytes: &[u8]) -> Json {
        let off = self.blob.len();
        self.blob.extend_from_slice(bytes);
        blob_desc(off, bytes.len())
    }

    /// Resolves a descriptor written by [`Snapshot::push_blob`].
    ///
    /// # Errors
    ///
    /// On malformed or out-of-range descriptors.
    pub fn blob(&self, desc: &Json) -> SnapResult<&[u8]> {
        let off = get_u64(desc, "off")? as usize;
        let len = get_u64(desc, "len")? as usize;
        self.blob
            .get(
                off..off
                    .checked_add(len)
                    .ok_or_else(|| SnapError::msg("blob overflow"))?,
            )
            .ok_or_else(|| {
                SnapError::msg(format!(
                    "blob descriptor {off:#x}+{len:#x} beyond arena of {:#x}",
                    self.blob.len()
                ))
            })
    }

    /// Stores a byte image page-compactly: all-zero 4 kB pages are skipped,
    /// the rest go into the blob as `(page_index: u64 LE, 4096 bytes)`
    /// records. Returns the image descriptor.
    pub fn push_pages(&mut self, data: &[u8]) -> Json {
        let off = self.blob.len();
        let mut count = 0u64;
        for (idx, page) in data.chunks(SNAP_PAGE_SIZE).enumerate() {
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            self.blob.extend_from_slice(&(idx as u64).to_le_bytes());
            self.blob.extend_from_slice(page);
            if page.len() < SNAP_PAGE_SIZE {
                // Final partial page: zero-pad so records are fixed-size.
                self.blob
                    .resize(self.blob.len() + SNAP_PAGE_SIZE - page.len(), 0);
            }
            count += 1;
        }
        let len = self.blob.len() - off;
        Json::obj([
            ("size", hex(data.len() as u64)),
            ("count", hex(count)),
            ("data", blob_desc(off, len)),
        ])
    }

    /// Rebuilds a byte image written by [`Snapshot::push_pages`]: `out` is
    /// zero-filled, then every recorded page is copied in.
    ///
    /// # Errors
    ///
    /// On size mismatch or malformed page records.
    pub fn restore_pages(&self, desc: &Json, out: &mut [u8]) -> SnapResult<()> {
        let size = get_u64(desc, "size")? as usize;
        if size != out.len() {
            return Err(SnapError::msg(format!(
                "image size mismatch: snapshot {size:#x}, target {:#x}",
                out.len()
            )));
        }
        out.fill(0);
        self.visit_pages(desc, |idx, page| {
            let Some(start) = usize::try_from(idx)
                .ok()
                .and_then(|i| i.checked_mul(SNAP_PAGE_SIZE))
                .filter(|&start| start < out.len())
            else {
                return Err(SnapError::msg(format!("page {idx:#x} beyond image")));
            };
            let n = (out.len() - start).min(SNAP_PAGE_SIZE);
            out[start..start + n].copy_from_slice(&page[..n]);
            Ok(())
        })
    }

    /// Iterates over the `(page_index, page_bytes)` records of a paged
    /// image (for sparse targets that materialize pages on demand).
    ///
    /// # Errors
    ///
    /// On malformed page records, or whatever `f` returns.
    pub fn visit_pages(
        &self,
        desc: &Json,
        mut f: impl FnMut(u64, &[u8]) -> SnapResult<()>,
    ) -> SnapResult<()> {
        let count = get_u64(desc, "count")?;
        let data = self.blob(get(desc, "data")?)?;
        let rec = 8 + SNAP_PAGE_SIZE;
        let need = usize::try_from(count).ok().and_then(|c| c.checked_mul(rec));
        if need != Some(data.len()) {
            return Err(SnapError::msg(format!(
                "paged image: {count} records of {rec:#x} bytes, have {:#x}",
                data.len()
            )));
        }
        for r in data.chunks_exact(rec) {
            let idx = u64::from_le_bytes(r[..8].try_into().expect("8 bytes"));
            f(idx, &r[8..])?;
        }
        Ok(())
    }

    /// The declared size of a paged image (without rebuilding it).
    ///
    /// # Errors
    ///
    /// On a malformed descriptor.
    pub fn pages_size(&self, desc: &Json) -> SnapResult<u64> {
        get_u64(desc, "size")
    }

    /// Serializes to the versioned byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = Json::obj([
            ("format", Json::from(u64::from(SNAPSHOT_FORMAT))),
            ("sections", Json::Obj(self.sections.clone())),
        ])
        .to_string();
        let mut out = Vec::with_capacity(8 + 4 + 8 + header.len() + 8 + self.blob.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&SNAPSHOT_FORMAT.to_le_bytes());
        out.extend_from_slice(&(header.len() as u64).to_le_bytes());
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(&(self.blob.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.blob);
        out
    }

    /// Parses and schema-checks the byte format.
    ///
    /// # Errors
    ///
    /// On a wrong magic, an unsupported format version, truncation, or a
    /// malformed header document.
    pub fn from_bytes(bytes: &[u8]) -> SnapResult<Snapshot> {
        let take = |off: usize, len: usize| -> SnapResult<&[u8]> {
            off.checked_add(len)
                .and_then(|end| bytes.get(off..end))
                .ok_or_else(|| SnapError::msg("truncated snapshot"))
        };
        if take(0, 8)? != MAGIC {
            return Err(SnapError::msg("bad magic (not a HULK-V snapshot)"));
        }
        let format = u32::from_le_bytes(take(8, 4)?.try_into().expect("4 bytes"));
        if format != SNAPSHOT_FORMAT {
            return Err(SnapError::msg(format!(
                "unsupported snapshot format {format} (this build reads {SNAPSHOT_FORMAT})"
            )));
        }
        let hlen = u64::from_le_bytes(take(12, 8)?.try_into().expect("8 bytes")) as usize;
        let header = std::str::from_utf8(take(20, hlen)?)
            .map_err(|e| SnapError::msg(format!("header not UTF-8: {e}")))?;
        let doc = Json::parse(header).map_err(|e| SnapError::msg(format!("header JSON: {e}")))?;
        let declared = get(&doc, "format")?
            .as_f64()
            .ok_or_else(|| SnapError::msg("format field not a number"))?;
        if declared as u32 != format {
            return Err(SnapError::msg("header/container format disagree"));
        }
        let Some(Json::Obj(sections)) = doc.get("sections").cloned() else {
            return Err(SnapError::msg("sections field missing or not an object"));
        };
        let blen_off = 20 + hlen;
        let blen = u64::from_le_bytes(take(blen_off, 8)?.try_into().expect("8 bytes")) as usize;
        let blob = take(blen_off + 8, blen)?.to_vec();
        if bytes.len() != blen_off + 8 + blen {
            return Err(SnapError::msg("trailing bytes after blob"));
        }
        Ok(Snapshot { sections, blob })
    }

    /// Serialized size in bytes (header + blob), for reporting.
    pub fn byte_len(&self) -> usize {
        self.to_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_extremes() {
        for v in [0u64, 1, 2u64.pow(53) + 1, u64::MAX] {
            assert_eq!(unhex(&hex(v)).unwrap(), v, "{v:#x}");
        }
        assert!(unhex(&Json::Str("0xZZ".into())).is_err());
        assert_eq!(unhex(&Json::Num(42.0)).unwrap(), 42);
    }

    #[test]
    fn container_round_trips() {
        let mut s = Snapshot::new();
        let d = s.push_blob(&[9, 8, 7]);
        s.set_section("a", Json::obj([("blob", d), ("v", hex(u64::MAX))]));
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(
            back.blob(get(back.section("a").unwrap(), "blob").unwrap())
                .unwrap(),
            &[9, 8, 7]
        );
    }

    #[test]
    fn schema_checks_reject_garbage() {
        assert!(Snapshot::from_bytes(b"not a snapshot").is_err());
        let mut bytes = Snapshot::new().to_bytes();
        bytes[8] = 0xFF; // format version
        assert!(Snapshot::from_bytes(&bytes).is_err());
        let good = Snapshot::new().to_bytes();
        assert!(Snapshot::from_bytes(&good[..good.len() - 1]).is_err());
    }

    /// A container around `header`, with `hlen` as its header length.
    fn container(hlen: u64, header: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&SNAPSHOT_FORMAT.to_le_bytes());
        bytes.extend_from_slice(&hlen.to_le_bytes());
        bytes.extend_from_slice(header);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes
    }

    #[test]
    fn header_length_overflow_is_an_error() {
        let err = Snapshot::from_bytes(&container(u64::MAX, b"{}")).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn deeply_nested_header_is_an_error() {
        let header = vec![b'['; 200_000];
        let err = Snapshot::from_bytes(&container(header.len() as u64, &header)).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn pages_skip_zero_and_round_trip() {
        let mut img = vec![0u8; 3 * SNAP_PAGE_SIZE + 100];
        img[5] = 1;
        img[2 * SNAP_PAGE_SIZE + 7] = 2;
        img[3 * SNAP_PAGE_SIZE + 50] = 3; // partial final page
        let mut s = Snapshot::new();
        let d = s.push_pages(&img);
        assert_eq!(get_u64(&d, "count").unwrap(), 3); // page 1 (all zero) skipped
        let mut out = vec![0xAAu8; img.len()];
        s.restore_pages(&d, &mut out).unwrap();
        assert_eq!(out, img);
        let mut wrong = vec![0u8; img.len() + 1];
        assert!(s.restore_pages(&d, &mut wrong).is_err());
    }

    #[test]
    fn page_count_overflow_is_an_error() {
        // 2^62 records of 8 + 4096 bytes wrap to 0 bytes in 64-bit
        // arithmetic, which would match an empty blob.
        let mut s = Snapshot::new();
        let data = s.push_blob(&[]);
        let d = Json::obj([
            ("size", hex(SNAP_PAGE_SIZE as u64)),
            ("count", hex(1 << 62)),
            ("data", data),
        ]);
        assert!(s.visit_pages(&d, |_, _| Ok(())).is_err());
    }

    #[test]
    fn page_index_overflow_is_an_error() {
        // Page 2^52 starts at 2^64 bytes, which wraps to offset 0.
        let mut rec = (1u64 << 52).to_le_bytes().to_vec();
        rec.extend_from_slice(&[0xEE; SNAP_PAGE_SIZE]);
        let mut s = Snapshot::new();
        let data = s.push_blob(&rec);
        let d = Json::obj([
            ("size", hex(SNAP_PAGE_SIZE as u64)),
            ("count", hex(1)),
            ("data", data),
        ]);
        let mut out = vec![0u8; SNAP_PAGE_SIZE];
        assert!(s.restore_pages(&d, &mut out).is_err());
        assert!(out.iter().all(|&b| b == 0), "page written out of place");
    }

    #[test]
    fn stats_round_trip_preserves_zero_keys() {
        let mut a = Stats::new("blk");
        a.set("hits", 3);
        a.set("misses", 0);
        let j = stats_to_json(&a);
        let mut b = Stats::new("blk");
        b.set("hits", 99);
        restore_stats(&mut b, &j).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_section_is_an_error() {
        let s = Snapshot::new();
        assert!(s.section("nope").is_err());
        assert!(!s.has_section("nope"));
    }
}
