//! Versioned binary snapshots of [`CompactCsr`] (weighted or not) and
//! [`CompressedCsr`].
//!
//! Text ingestion is parse-bound (~100 MiB/s through the byte-level
//! reader; see `benches/ingest.rs`), which makes every experiment re-pay
//! the full decode cost of its input. A snapshot stores the CSR arrays
//! **verbatim** behind a checksummed 64-byte header, so loading is a
//! sequential read plus one checksum pass — memory-bandwidth-bound, an
//! order of magnitude faster than parsing — and [`CompactCsr::open`]
//! skips even the copy by `mmap`ing the file and returning a
//! [`CompactCsr`] whose arrays are the file's sections, served straight
//! from the page cache. The copying and the mapping load share one
//! validation (checksums, CSR shape, the header's Δ/δ against the
//! arrays); one writer produces both versions.
//!
//! ## On-disk layout (version 1)
//!
//! All fields and arrays are **native-endian**; the header carries an
//! endianness marker so a foreign-endian file is rejected instead of
//! decoded wrong. Every section is zero-padded to an 8-byte boundary so
//! the mmap path can cast `u64` offsets and `f64` weights in place.
//!
//! ```text
//! byte  0  ┌────────────────────────────────────────────────┐
//!          │ magic  "PGCSNAP\0"                      (8 B)  │
//!          │ version u16 = 1 · endian u16 = 0xFEFF   (4 B)  │
//!          │ offset_width u8 · weight_kind u8               │
//!          │ weight_width u8 · reserved u8           (4 B)  │
//!          │ n u64 · num_arcs u64                   (16 B)  │
//!          │ max_deg u32 · min_deg u32               (8 B)  │
//!          │ payload_checksum u64                    (8 B)  │
//!          │ reserved u64                            (8 B)  │
//!          │ header_checksum u64 (over bytes 0..56)  (8 B)  │
//! byte 64  ├────────────────────────────────────────────────┤
//!          │ offsets  (n+1) × offset_width, pad → 8         │
//!          ├────────────────────────────────────────────────┤
//!          │ neighbors  num_arcs × 4, pad → 8               │
//!          ├────────────────────────────────────────────────┤
//!          │ weights  num_arcs × weight_width (absent if 0) │
//!          └────────────────────────────────────────────────┘
//! ```
//!
//! `weight_kind` is [`EdgeWeight::SNAPSHOT_KIND`] (0 = unit, 1 = `u32`,
//! 2 = `f32`, 3 = `f64`). An unweighted load accepts any kind (it skips
//! the weights section); a weighted load of a different non-unit kind is
//! `InvalidData`. Both checksums are FNV-1a over 8-byte words, so a
//! truncated, bit-flipped, or foreign file fails loudly — never a
//! silently wrong graph.
//!
//! The text readers ([`crate::io`]) sniff the magic, so a `.pgcs` file
//! can be handed to any `read_*_path` entry point and transparently
//! takes the fast path.
//!
//! ## On-disk layout (version 2, compressed neighbors)
//!
//! Version 2 snapshots ([`write_compressed_snapshot`]) replace the raw
//! neighbor array with the delta-varint **encoded arena** of a
//! [`CompressedCsr`], typically ≥2× smaller on disk. The header is the
//! same 64 bytes: byte 15 (reserved in v1) becomes a flags byte
//! ([`FLAG_COMPRESSED`], [`FLAG_WIDE_BYTE_OFFSETS`]) and bytes 48..56
//! (reserved in v1) carry the arena length. Sections become:
//!
//! ```text
//! header (64 B, version = 2)
//! offsets       (n+1) × offset_width, pad → 8
//! byte_offsets  (n+1) × (4 or 8),     pad → 8
//! arena         encoded_len bytes,    pad → 8
//! weights       num_arcs × weight_width (absent if 0)
//! ```
//!
//! Both loaders sniff the version: [`load_snapshot`] decodes a v2 file
//! into a [`CompactCsr`] transparently (so every `read_*_path` entry
//! point accepts either version), while [`load_compressed_snapshot`]
//! serves the arena **zero-copy** from the `mmap` — only the two offset
//! arrays and the weights are copied out. Version 1 files are written
//! and read byte-identically to before.

use crate::compact::{validate_csr_shape, CompactCsr, Offsets};
use crate::compressed::CompressedCsr;
use crate::storage::{Backing, Pod, Storage};
use crate::view::GraphView;
use crate::weight::EdgeWeight;
use std::borrow::Cow;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// The 8-byte magic every snapshot starts with.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"PGCSNAP\0";

/// Current format version for raw-array snapshots.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Format version for compressed-neighbor snapshots.
pub const SNAPSHOT_VERSION_COMPRESSED: u16 = 2;

/// Header flag (byte 15, bit 0): the neighbors section is a delta-varint
/// encoded arena preceded by a byte-offsets section.
pub const FLAG_COMPRESSED: u8 = 1;

/// Header flag (byte 15, bit 1): the byte-offsets section uses 8-byte
/// entries (arena ≥ 4 GiB) instead of 4-byte.
pub const FLAG_WIDE_BYTE_OFFSETS: u8 = 2;

const KNOWN_FLAGS: u8 = FLAG_COMPRESSED | FLAG_WIDE_BYTE_OFFSETS;

/// Conventional file extension (`graph.pgcs`); nothing depends on it —
/// loaders sniff the magic, not the name.
pub const SNAPSHOT_EXT: &str = "pgcs";

const HEADER_LEN: usize = 64;
const ENDIAN_MARK: u16 = 0xFEFF;

/// True if `prefix` begins with the snapshot magic (give it the first 8+
/// bytes of a file).
pub fn is_snapshot(prefix: &[u8]) -> bool {
    prefix.len() >= SNAPSHOT_MAGIC.len() && prefix[..SNAPSHOT_MAGIC.len()] == SNAPSHOT_MAGIC
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------
// Checksum: FNV-1a over 8-byte words
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Fold `bytes` into `h` one native-endian word at a time; a partial
/// tail word is zero-extended — exactly the zero padding the writer
/// emits, so hashing the unpadded arrays equals hashing the padded file
/// sections.
fn hash_section(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_ne_bytes(c.try_into().unwrap()));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_ne_bytes(tail));
    }
    h
}

// ---------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct Header {
    offset_width: u8,
    weight_kind: u8,
    weight_width: u8,
    /// v2 flag bits (byte 15); 0 in every v1 header.
    flags: u8,
    n: u64,
    num_arcs: u64,
    max_deg: u32,
    min_deg: u32,
    payload_checksum: u64,
    /// Encoded arena length in bytes (v2 only); 0 in every v1 header.
    encoded_len: u64,
}

impl Header {
    #[inline]
    fn compressed(&self) -> bool {
        self.flags & FLAG_COMPRESSED != 0
    }

    /// Byte-offset entry width (meaningful only when compressed).
    #[inline]
    fn byte_offset_width(&self) -> usize {
        if self.flags & FLAG_WIDE_BYTE_OFFSETS != 0 {
            8
        } else {
            4
        }
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let version = if self.compressed() {
            SNAPSHOT_VERSION_COMPRESSED
        } else {
            SNAPSHOT_VERSION
        };
        let mut h = [0u8; HEADER_LEN];
        h[0..8].copy_from_slice(&SNAPSHOT_MAGIC);
        h[8..10].copy_from_slice(&version.to_ne_bytes());
        h[10..12].copy_from_slice(&ENDIAN_MARK.to_ne_bytes());
        h[12] = self.offset_width;
        h[13] = self.weight_kind;
        h[14] = self.weight_width;
        h[15] = self.flags;
        h[16..24].copy_from_slice(&self.n.to_ne_bytes());
        h[24..32].copy_from_slice(&self.num_arcs.to_ne_bytes());
        h[32..36].copy_from_slice(&self.max_deg.to_ne_bytes());
        h[36..40].copy_from_slice(&self.min_deg.to_ne_bytes());
        h[40..48].copy_from_slice(&self.payload_checksum.to_ne_bytes());
        h[48..56].copy_from_slice(&self.encoded_len.to_ne_bytes());
        let ck = hash_section(FNV_OFFSET, &h[..56]);
        h[56..64].copy_from_slice(&ck.to_ne_bytes());
        h
    }

    fn decode(bytes: &[u8]) -> std::io::Result<Self> {
        if bytes.len() < HEADER_LEN {
            return Err(bad(format!(
                "snapshot truncated: {} bytes, header needs {HEADER_LEN}",
                bytes.len()
            )));
        }
        if !is_snapshot(bytes) {
            return Err(bad("not a snapshot: bad magic".into()));
        }
        let u16_at = |i: usize| u16::from_ne_bytes(bytes[i..i + 2].try_into().unwrap());
        let u32_at = |i: usize| u32::from_ne_bytes(bytes[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_ne_bytes(bytes[i..i + 8].try_into().unwrap());
        let stored = u64_at(56);
        let computed = hash_section(FNV_OFFSET, &bytes[..56]);
        if stored != computed {
            return Err(bad(format!(
                "snapshot header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        let version = u16_at(8);
        if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_COMPRESSED {
            return Err(bad(format!(
                "unsupported snapshot version {version} (this build reads \
                 {SNAPSHOT_VERSION} and {SNAPSHOT_VERSION_COMPRESSED})"
            )));
        }
        if u16_at(10) != ENDIAN_MARK {
            return Err(bad(
                "snapshot endianness mismatch: written on a foreign-endian machine".into(),
            ));
        }
        let h = Self {
            offset_width: bytes[12],
            weight_kind: bytes[13],
            weight_width: bytes[14],
            flags: bytes[15],
            n: u64_at(16),
            num_arcs: u64_at(24),
            max_deg: u32_at(32),
            min_deg: u32_at(36),
            payload_checksum: u64_at(40),
            encoded_len: u64_at(48),
        };
        if version == SNAPSHOT_VERSION && (h.flags != 0 || h.encoded_len != 0) {
            return Err(bad(
                "v1 snapshot with nonzero reserved bytes (flags / encoded length)".into(),
            ));
        }
        if version == SNAPSHOT_VERSION_COMPRESSED {
            if h.flags & !KNOWN_FLAGS != 0 {
                return Err(bad(format!(
                    "v2 snapshot carries unknown flags {:#04x}",
                    h.flags
                )));
            }
            if !h.compressed() {
                return Err(bad(
                    "v2 snapshot without the compressed-neighbors flag".into()
                ));
            }
        }
        if !matches!(h.offset_width, 4 | 8) {
            return Err(bad(format!("bad snapshot offset width {}", h.offset_width)));
        }
        let expect_width = match h.weight_kind {
            0 => 0u8,
            1 | 2 => 4,
            3 => 8,
            k => return Err(bad(format!("unknown snapshot weight kind {k}"))),
        };
        if h.weight_width != expect_width {
            return Err(bad(format!(
                "snapshot weight width {} inconsistent with kind {}",
                h.weight_width, h.weight_kind
            )));
        }
        Ok(h)
    }

    /// Byte ranges of the (padded) sections and the expected file
    /// length. The byte-offsets section is zero-length in v1 layouts;
    /// in v2 layouts the `nbr` section holds the encoded arena instead
    /// of a raw `u32` array. Every size and sum is checked, so a header
    /// that names sections past the address space is `InvalidData`.
    fn layout(&self) -> std::io::Result<SectionLayout> {
        let too_big = |what: &str| bad(format!("snapshot {what} overflows the address space"));
        let n = usize::try_from(self.n).map_err(|_| too_big("n"))?;
        let arcs = usize::try_from(self.num_arcs).map_err(|_| too_big("num_arcs"))?;
        let entries = n.checked_add(1).ok_or_else(|| too_big("offsets section"))?;
        let sized = |count: usize, width: usize, what: &str| {
            count.checked_mul(width).ok_or_else(|| too_big(what))
        };
        let off_len = sized(entries, self.offset_width as usize, "offsets section")?;
        let (bo_len, nbr_len) = if self.compressed() {
            let arena = usize::try_from(self.encoded_len).map_err(|_| too_big("arena"))?;
            let bo = sized(entries, self.byte_offset_width(), "byte-offsets section")?;
            (bo, arena)
        } else {
            (0, sized(arcs, 4, "neighbors section")?)
        };
        let w_len = sized(arcs, self.weight_width as usize, "weights section")?;
        // Each section starts where the previous one ends, padded to 8.
        let after = |start: usize, len: usize| {
            len.checked_next_multiple_of(8)
                .and_then(|padded| start.checked_add(padded))
                .ok_or_else(|| too_big("section table"))
        };
        let off_start = HEADER_LEN;
        let bo_start = after(off_start, off_len)?;
        let nbr_start = after(bo_start, bo_len)?;
        let w_start = after(nbr_start, nbr_len)?;
        Ok(SectionLayout {
            off_start,
            off_len,
            bo_start,
            bo_len,
            nbr_start,
            nbr_len,
            w_start,
            w_len,
            total: after(w_start, w_len)?,
        })
    }
}

struct SectionLayout {
    off_start: usize,
    off_len: usize,
    bo_start: usize,
    bo_len: usize,
    nbr_start: usize,
    nbr_len: usize,
    w_start: usize,
    w_len: usize,
    total: usize,
}

impl SectionLayout {
    /// Padded section slices of `bytes` (whose length is `total`), in
    /// file order: offsets, byte-offsets (empty in v1), neighbors-or-
    /// arena, weights.
    fn sections<'a>(&self, bytes: &'a [u8]) -> [&'a [u8]; 4] {
        [
            &bytes[self.off_start..self.bo_start],
            &bytes[self.bo_start..self.nbr_start],
            &bytes[self.nbr_start..self.w_start],
            &bytes[self.w_start..self.total],
        ]
    }
}

// ---------------------------------------------------------------------
// Byte <-> typed-array helpers (plain-old-data only)
// ---------------------------------------------------------------------

/// Raw bytes of a POD slice (`u32`/`usize`/`f32`/`f64`; `()` is empty).
fn as_bytes<T: Pod>(v: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` has no padding; reading its object representation
    // is defined.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v)) }
}

/// Copy `count` `T`s out of `bytes` (alignment-free byte copy).
fn vec_from_bytes<T: Pod>(bytes: &[u8], count: usize) -> Vec<T> {
    let size = std::mem::size_of::<T>();
    assert!(bytes.len() >= count * size);
    let mut v = vec![T::default(); count];
    // SAFETY: every bit pattern is a valid `T: Pod`, and the source range
    // is in bounds (asserted above).
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), v.as_mut_ptr() as *mut u8, count * size);
    }
    v
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// An offsets array as file bytes: its entry width (4 or 8) and the
/// entries, widened to `u64` on hosts whose `usize` is narrower.
fn offset_bytes(o: &Offsets) -> (u8, Cow<'_, [u8]>) {
    match o {
        Offsets::Small(v) => (4, Cow::Borrowed(as_bytes(v))),
        Offsets::Wide(v) if std::mem::size_of::<usize>() == 8 => (8, Cow::Borrowed(as_bytes(v))),
        Offsets::Wide(v) => (
            8,
            v.iter().flat_map(|&x| (x as u64).to_ne_bytes()).collect(),
        ),
    }
}

/// The one snapshot writer: the header, then the offsets, byte-offsets
/// (v2 only), neighbors-or-arena and weights sections, each zero-padded
/// to 8 bytes. `byte_offsets` is `Some` exactly for a version-2 file,
/// whose `neighbors` section is the encoded arena. Returns the bytes
/// written.
fn write_parts<W: EdgeWeight, Wr: Write>(
    g: &impl GraphView,
    offsets: &Offsets,
    byte_offsets: Option<&Offsets>,
    neighbors: &[u8],
    weights: &[W],
    w: &mut Wr,
) -> std::io::Result<u64> {
    let (offset_width, off) = offset_bytes(offsets);
    let (flags, bo) = match byte_offsets.map(offset_bytes) {
        None => (0, Cow::Borrowed(&[][..])),
        Some((4, bo)) => (FLAG_COMPRESSED, bo),
        Some((_, bo)) => (FLAG_COMPRESSED | FLAG_WIDE_BYTE_OFFSETS, bo),
    };
    let sections = [&off[..], &bo[..], neighbors, as_bytes(weights)];
    let header = Header {
        offset_width,
        weight_kind: W::SNAPSHOT_KIND,
        weight_width: std::mem::size_of::<W>() as u8,
        flags,
        n: g.n() as u64,
        num_arcs: g.num_arcs() as u64,
        max_deg: g.max_degree(),
        min_deg: g.min_degree(),
        payload_checksum: sections.iter().fold(FNV_OFFSET, |h, s| hash_section(h, s)),
        encoded_len: if flags == 0 {
            0
        } else {
            neighbors.len() as u64
        },
    };
    w.write_all(&header.encode())?;
    let mut written = HEADER_LEN as u64;
    for section in sections {
        let pad = section.len().next_multiple_of(8) - section.len();
        w.write_all(section)?;
        w.write_all(&[0; 8][..pad])?;
        written += (section.len() + pad) as u64;
    }
    Ok(written)
}

/// Run a writer against a buffered new file at `path`.
fn write_file(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<File>) -> std::io::Result<u64>,
) -> std::io::Result<u64> {
    let mut w = std::io::BufWriter::new(File::create(path)?);
    let bytes = write(&mut w)?;
    w.flush()?;
    Ok(bytes)
}

/// Serialize a graph and its weights to `w` as a version-1 snapshot.
/// Returns the bytes written. With the unit payload this is an
/// unweighted snapshot.
pub fn write_snapshot_to<W: EdgeWeight, Wr: Write>(
    g: &CompactCsr<W>,
    w: &mut Wr,
) -> std::io::Result<u64> {
    let nbrs = as_bytes(g.raw_neighbors());
    write_parts(g, g.raw_offsets(), None, nbrs, g.raw_weights(), w)
}

/// Serialize a graph to a file (buffered, version 1). Returns the bytes
/// written.
pub fn write_snapshot<W: EdgeWeight>(g: &CompactCsr<W>, path: &Path) -> std::io::Result<u64> {
    write_file(path, |w| write_snapshot_to(g, w))
}

/// Serialize an already-compressed graph to `w` as a version-2 snapshot
/// (the arena is written verbatim — no re-encode). Returns the bytes
/// written.
pub fn write_compressed_snapshot_to<W: EdgeWeight, Wr: Write>(
    g: &CompressedCsr<W>,
    w: &mut Wr,
) -> std::io::Result<u64> {
    let bo = Some(g.raw_byte_offsets());
    write_parts(g, g.raw_offsets(), bo, g.arena_bytes(), g.raw_weights(), w)
}

/// Serialize an already-compressed graph to a file (buffered, version 2).
/// Returns the bytes written.
pub fn write_compressed_snapshot<W: EdgeWeight>(
    g: &CompressedCsr<W>,
    path: &Path,
) -> std::io::Result<u64> {
    write_file(path, |w| write_compressed_snapshot_to(g, w))
}

/// Encode a raw-array graph and write it as a version-2 compressed
/// snapshot (the `pgc snapshot --compress` path). Returns the bytes
/// written.
pub fn write_snapshot_compressed(g: &CompactCsr, path: &Path) -> std::io::Result<u64> {
    write_compressed_snapshot(&CompressedCsr::from_compact(g), path)
}

// ---------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------

/// Decode the header, check both checksums, the exact file length, and
/// that the stored payload kind loads as `W` (the unit payload accepts
/// any kind and skips the weights); hand back `(header, layout)`.
fn verify<W: EdgeWeight>(bytes: &[u8]) -> std::io::Result<(Header, SectionLayout)> {
    let header = Header::decode(bytes)?;
    let layout = header.layout()?;
    if bytes.len() != layout.total {
        return Err(bad(format!(
            "snapshot length {} does not match header ({} expected): truncated or trailing bytes",
            bytes.len(),
            layout.total
        )));
    }
    let mut payload = FNV_OFFSET;
    for section in layout.sections(bytes) {
        payload = hash_section(payload, section);
    }
    if payload != header.payload_checksum {
        return Err(bad(format!(
            "snapshot payload checksum mismatch: stored {:#018x}, computed {payload:#018x} \
             (corrupt or bit-flipped file)",
            header.payload_checksum
        )));
    }
    if !W::IS_UNIT && header.weight_kind != W::SNAPSHOT_KIND {
        return Err(bad(format!(
            "snapshot weight kind {} does not match the requested payload (kind {})",
            header.weight_kind,
            W::SNAPSHOT_KIND
        )));
    }
    Ok((header, layout))
}

/// The cached Δ/δ the header records must be the arrays' own: the
/// algorithms size palettes and bounds from them.
fn check_extremes(header: &Header, max_deg: u32, min_deg: u32) -> std::io::Result<()> {
    if (max_deg, min_deg) != (header.max_deg, header.min_deg) {
        return Err(bad(format!(
            "snapshot degree extremes (Δ={}, δ={}) disagree with arrays (Δ={max_deg}, δ={min_deg})",
            header.max_deg, header.min_deg
        )));
    }
    Ok(())
}

/// An offsets array must run from 0 up to `end` without decreasing.
fn check_monotone(o: &Offsets, end: usize, what: &str) -> std::io::Result<()> {
    let n = o.len() - 1;
    if o.get(0) != 0 || (0..n).any(|i| o.get(i) > o.get(i + 1)) || o.get(n) != end {
        return Err(bad(format!("snapshot {what} are not monotone")));
    }
    Ok(())
}

/// Where a loader takes a snapshot's arrays from: copied out of bytes
/// read into memory, or borrowed in place from a mapped file.
#[derive(Clone, Copy)]
enum Source<'a> {
    Copy(&'a [u8]),
    Map(&'a Arc<Backing>),
}

impl Source<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Source::Copy(bytes) => bytes,
            Source::Map(backing) => backing.bytes(),
        }
    }

    /// `count` values of `T` starting `start` bytes into the file.
    fn array<T: Pod>(self, start: usize, count: usize) -> Storage<T> {
        match self {
            Source::Copy(bytes) => vec_from_bytes(&bytes[start..], count).into(),
            Source::Map(backing) => Storage::mapped(backing, start, count),
        }
    }

    /// `count` offsets of `width` bytes each, starting `start` bytes in.
    fn offsets(self, width: usize, start: usize, count: usize) -> std::io::Result<Offsets> {
        if width == 4 {
            return Ok(Offsets::Small(self.array(start, count)));
        }
        if std::mem::size_of::<usize>() == 8 {
            return Ok(Offsets::Wide(self.array(start, count)));
        }
        let wide: Vec<u64> = vec_from_bytes(&self.bytes()[start..], count);
        let narrow: Result<Vec<usize>, _> = wide.into_iter().map(usize::try_from).collect();
        let narrow =
            narrow.map_err(|_| bad("wide snapshot offset exceeds this platform's usize".into()))?;
        Ok(Offsets::Wide(narrow.into()))
    }
}

/// Decode a v2 arena into a raw neighbor array (parallel, each vertex
/// into its disjoint output range). Each run's block structure is
/// strictly validated against its declared degree before decoding, so a
/// corrupt-but-checksum-valid file (truncated run, lying `dlen`) errors
/// instead of decoding garbage or panicking.
fn decode_arena(offsets: &Offsets, bo: &Offsets, arena: &[u8]) -> std::io::Result<Vec<u32>> {
    use rayon::prelude::*;
    let n = offsets.len() - 1;
    let mut neighbors = vec![0u32; offsets.get(n)];
    let ptr = crate::compressed::SharedMut(neighbors.as_mut_ptr());
    let ok = (0..n).into_par_iter().all(|v| {
        let (s, e) = (offsets.get(v), offsets.get(v + 1));
        let run = &arena[bo.get(v)..bo.get(v + 1)];
        if !pgc_primitives::varint::validate_run(run, e - s) {
            return false;
        }
        let mut dec = pgc_primitives::varint::Decoder::new(run, e - s);
        // SAFETY: per-vertex arc ranges are disjoint (monotone offsets).
        let out = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(s), e - s) };
        dec.decode_into_slice(out);
        true
    });
    if !ok {
        return Err(bad(
            "compressed snapshot holds a malformed varint run (length or block \
             structure disagrees with the declared degree)"
                .into(),
        ));
    }
    Ok(neighbors)
}

/// The offsets and byte offsets of a verified v2 file, each checked
/// monotone within its array.
fn v2_offsets(
    src: Source<'_>,
    header: &Header,
    layout: &SectionLayout,
) -> std::io::Result<(Offsets, Offsets)> {
    let count = header.n as usize + 1;
    let offsets = src.offsets(header.offset_width as usize, layout.off_start, count)?;
    check_monotone(&offsets, header.num_arcs as usize, "offsets")?;
    let bo = src.offsets(header.byte_offset_width(), layout.bo_start, count)?;
    check_monotone(&bo, layout.nbr_len, "byte offsets")?;
    Ok((offsets, bo))
}

/// The one load of a verified file into a [`CompactCsr`], copied or
/// mapped: read (or decode) the arrays, then check the CSR shape (an
/// O(n + m) sweep: monotone offsets, sorted in-range loop-free
/// adjacencies) and the header's Δ/δ against the arrays. Debug builds
/// add the O(m log Δ) symmetry cross-check; in release the payload
/// checksum vouches for the writer, which only serializes
/// already-validated graphs.
fn load_csr<W: EdgeWeight>(
    src: Source<'_>,
    header: &Header,
    layout: &SectionLayout,
) -> std::io::Result<CompactCsr<W>> {
    let invalid = |e: String| bad(format!("snapshot holds an invalid CSR: {e}"));
    let (n, arcs) = (header.n as usize, header.num_arcs as usize);
    let (offsets, neighbors) = if header.compressed() {
        let (offsets, bo) = v2_offsets(src, header, layout)?;
        let arena = &src.bytes()[layout.nbr_start..][..layout.nbr_len];
        let neighbors = decode_arena(&offsets, &bo, arena)?;
        (offsets, neighbors.into())
    } else {
        let offsets = src.offsets(header.offset_width as usize, layout.off_start, n + 1)?;
        (offsets, src.array(layout.nbr_start, arcs))
    };
    validate_csr_shape(n + 1, |i| offsets.get(i), &neighbors).map_err(invalid)?;
    let g = CompactCsr::from_storage(offsets, neighbors, src.array(layout.w_start, arcs));
    #[cfg(debug_assertions)]
    g.validate().map_err(invalid)?;
    check_extremes(header, g.max_degree(), g.min_degree())?;
    Ok(g)
}

/// Load an unweighted graph from in-memory snapshot bytes, verifying
/// both checksums and all CSR invariants. Weighted snapshots load their
/// structure (the weights section is skipped).
pub fn load_snapshot_bytes(bytes: &[u8]) -> std::io::Result<CompactCsr> {
    load_weighted_snapshot_bytes(bytes)
}

/// Load a weighted graph from in-memory snapshot bytes. The payload type
/// must match the stored kind ([`EdgeWeight::SNAPSHOT_KIND`]); the unit
/// payload accepts any snapshot and carries no weight bytes.
pub fn load_weighted_snapshot_bytes<W: EdgeWeight>(bytes: &[u8]) -> std::io::Result<CompactCsr<W>> {
    let (header, layout) = verify::<W>(bytes)?;
    load_csr(Source::Copy(bytes), &header, &layout)
}

fn read_file(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut f = File::open(path)?;
    let mut bytes = Vec::with_capacity(f.metadata().map(|m| m.len() as usize).unwrap_or(0) + 1);
    f.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Load an unweighted graph from a snapshot file (one sequential read,
/// fully verified).
pub fn load_snapshot(path: &Path) -> std::io::Result<CompactCsr> {
    load_snapshot_bytes(&read_file(path)?)
}

/// Load a weighted graph from a snapshot file (one sequential read,
/// fully verified).
pub fn load_weighted_snapshot<W: EdgeWeight>(path: &Path) -> std::io::Result<CompactCsr<W>> {
    load_weighted_snapshot_bytes::<W>(&read_file(path)?)
}

/// The in-place view of a v1 snapshot: a [`CompactCsr`] whose arrays are
/// a mapped file's sections ([`CompactCsr::open`]).
pub type MappedSnapshot<W = ()> = CompactCsr<W>;

impl<W: EdgeWeight> CompactCsr<W> {
    /// Map a version-1 snapshot and serve its offsets, neighbors, and
    /// weights **in place** (page-cache-backed, zero copy), after the
    /// same checks as [`load_snapshot`]: both checksums, the CSR shape,
    /// the header's Δ/δ, and the weight kind for non-unit `W`. Where
    /// `mmap` is unavailable the file is read into an aligned buffer
    /// instead. A version-2 file holds no raw neighbor array to map; load
    /// it with [`load_snapshot`] or [`load_compressed_snapshot`].
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let backing = Backing::open(path)?;
        let (header, layout) = verify::<W>(backing.bytes())?;
        if header.compressed() {
            return Err(bad(
                "compressed (v2) snapshot cannot be served as raw in-place arrays; \
                 use load_compressed_snapshot or load_snapshot"
                    .into(),
            ));
        }
        load_csr(Source::Map(&backing), &header, &layout)
    }
}

// ---------------------------------------------------------------------
// Compressed (v2) load — zero-copy arena
// ---------------------------------------------------------------------

/// Release-build validation of a compressed load: every adjacency's
/// encoded run is structurally well-formed
/// ([`pgc_primitives::varint::validate_run`], so truncated or mis-framed
/// runs error instead of panicking or decoding garbage) and decodes to
/// the right count of strictly-ascending, in-range, loop-free ids — the
/// [`crate::compact::validate_csr_shape`] contract, run through the decoder.
/// Debug builds add the symmetry cross-check.
fn validate_compressed<W: EdgeWeight>(g: &CompressedCsr<W>, n: usize) -> std::io::Result<()> {
    use rayon::prelude::*;
    let ok = (0..n as u32).into_par_iter().all(|v| {
        if !g.validate_encoded_run(v) {
            return false;
        }
        let mut dec = g.decoder(v);
        let mut buf = [0u32; pgc_primitives::varint::BLOCK];
        let mut prev: Option<u32> = None;
        let mut count = 0usize;
        loop {
            let c = dec.next_block_into(&mut buf);
            if c == 0 {
                break;
            }
            for &x in &buf[..c] {
                if x as usize >= n || x == v || prev.is_some_and(|p| p >= x) {
                    return false;
                }
                prev = Some(x);
            }
            count += c;
        }
        count == g.degree(v) as usize
    });
    if !ok {
        return Err(bad(
            "compressed snapshot holds an invalid CSR: adjacency fails the shape sweep".into(),
        ));
    }
    #[cfg(debug_assertions)]
    {
        let symmetric = (0..n as u32)
            .into_par_iter()
            .all(|v| g.with_neighbor_slice(v, |ns| ns.iter().all(|&u| g.has_edge(u, v))));
        if !symmetric {
            return Err(bad(
                "compressed snapshot holds an invalid CSR: adjacency is not symmetric".into(),
            ));
        }
    }
    Ok(())
}

/// Load a snapshot into a [`CompressedCsr`], verifying checksums and the
/// full CSR contract. A version-2 file is served **zero-copy**: the
/// encoded arena stays in the `mmap` (page-cache-backed) and only the
/// two offset arrays and the weights are copied out. A version-1 file is
/// mapped and losslessly encoded, so either version works.
pub fn load_compressed_snapshot<W: EdgeWeight>(path: &Path) -> std::io::Result<CompressedCsr<W>> {
    let backing = Backing::open(path)?;
    let (header, layout) = verify::<W>(backing.bytes())?;
    let src = Source::Map(&backing);
    if !header.compressed() {
        return Ok(CompressedCsr::from_weighted(&load_csr(
            src, &header, &layout,
        )?));
    }
    // Only the arena stays in the mapping; the offsets and weights are
    // copied out, so the heap footprint counts them truthfully.
    let copy = Source::Copy(backing.bytes());
    let (offsets, byte_offsets) = v2_offsets(copy, &header, &layout)?;
    let arena = src.array(layout.nbr_start, layout.nbr_len);
    let weights = copy.array(layout.w_start, header.num_arcs as usize);
    let g = CompressedCsr::from_encoded_parts(offsets, byte_offsets, arena, weights);
    validate_compressed(&g, header.n as usize)?;
    check_extremes(
        &header,
        GraphView::max_degree(&g),
        GraphView::min_degree(&g),
    )?;
    Ok(g)
}

// ---------------------------------------------------------------------
// Inspection (`pgc snapshot --info`)
// ---------------------------------------------------------------------

/// Everything the header and section table say about a snapshot file,
/// gathered by [`inspect_snapshot`] after full checksum verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version (1 = raw arrays, 2 = compressed neighbors).
    pub version: u16,
    /// True when the neighbors live as a delta-varint arena.
    pub compressed: bool,
    /// Bytes per offset entry (4 or 8).
    pub offset_width: u8,
    /// Bytes per byte-offset entry (4 or 8; 0 when uncompressed).
    pub byte_offset_width: u8,
    /// [`EdgeWeight::SNAPSHOT_KIND`] of the stored payload.
    pub weight_kind: u8,
    /// Bytes per stored weight (0 for the unit payload).
    pub weight_width: u8,
    /// Number of vertices.
    pub n: u64,
    /// Number of stored directed arcs (`2m`).
    pub num_arcs: u64,
    /// Maximum degree Δ.
    pub max_deg: u32,
    /// Minimum degree δ.
    pub min_deg: u32,
    /// Unpadded byte length of the offsets section.
    pub offsets_bytes: usize,
    /// Unpadded byte length of the byte-offsets section (0 in v1).
    pub byte_offsets_bytes: usize,
    /// Unpadded byte length of the neighbors section: the raw `u32`
    /// array (v1) or the encoded arena (v2).
    pub neighbor_bytes: usize,
    /// Unpadded byte length of the weights section.
    pub weight_bytes: usize,
    /// Total file length (header + padded sections).
    pub file_bytes: usize,
}

impl SnapshotInfo {
    /// Encoded-to-raw neighbor byte ratio (1.0 for uncompressed files).
    pub fn compression_ratio(&self) -> f64 {
        if !self.compressed || self.num_arcs == 0 {
            return 1.0;
        }
        self.neighbor_bytes as f64 / (4 * self.num_arcs) as f64
    }
}

/// Read and fully verify `path`, returning the header / section-table
/// facts (`pgc snapshot --info`). Verifies both checksums, so a corrupt
/// file is reported rather than described.
pub fn inspect_snapshot(path: &Path) -> std::io::Result<SnapshotInfo> {
    let bytes = read_file(path)?;
    let (header, layout) = verify::<()>(&bytes)?;
    Ok(SnapshotInfo {
        version: if header.compressed() {
            SNAPSHOT_VERSION_COMPRESSED
        } else {
            SNAPSHOT_VERSION
        },
        compressed: header.compressed(),
        offset_width: header.offset_width,
        byte_offset_width: if header.compressed() {
            header.byte_offset_width() as u8
        } else {
            0
        },
        weight_kind: header.weight_kind,
        weight_width: header.weight_width,
        n: header.n,
        num_arcs: header.num_arcs,
        max_deg: header.max_deg,
        min_deg: header.min_deg,
        offsets_bytes: layout.off_len,
        byte_offsets_bytes: layout.bo_len,
        neighbor_bytes: layout.nbr_len,
        weight_bytes: layout.w_len,
        file_bytes: layout.total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, from_weighted_edges};
    use crate::gen::{generate, GraphSpec};
    use crate::view::{GraphMemory, WeightedView};

    fn snap_bytes(g: &CompactCsr) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot_to(g, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_unweighted() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 500, m: 2000 }, 7);
        let back = load_snapshot_bytes(&snap_bytes(&g)).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn round_trip_weighted() {
        let g = from_weighted_edges(5, &[(0u32, 1u32, 2.5f64), (1, 2, -4.0), (3, 4, 0.25)]);
        let mut buf = Vec::new();
        write_snapshot_to(&g, &mut buf).unwrap();
        let back = load_weighted_snapshot_bytes::<f64>(&buf).unwrap();
        assert_eq!(back, g);
        // Structure-only load of a weighted snapshot works too.
        assert_eq!(load_snapshot_bytes(&buf).unwrap(), g.into_structure());
    }

    #[test]
    fn weight_kind_mismatch_rejected() {
        let g = from_weighted_edges(3, &[(0u32, 1u32, 2.5f32), (1, 2, 1.0)]);
        let mut buf = Vec::new();
        write_snapshot_to(&g, &mut buf).unwrap();
        let err = load_weighted_snapshot_bytes::<f64>(&buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("kind"), "{err}");
        // Unit payload accepts anything.
        assert!(load_weighted_snapshot_bytes::<()>(&buf).is_ok());
    }

    #[test]
    fn truncated_and_flipped_rejected() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 200, m: 800 }, 3);
        let buf = snap_bytes(&g);
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN, buf.len() - 1] {
            let err = load_snapshot_bytes(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut {cut}");
        }
        // Flip one bit in every region: magic, header fields, payload.
        for pos in [0usize, 9, 13, 20, 40, 60, HEADER_LEN + 3, buf.len() - 2] {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(
                load_snapshot_bytes(&bad).is_err(),
                "bit flip at {pos} must be rejected"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = snap_bytes(&g);
        buf.extend_from_slice(&[0u8; 8]);
        assert!(load_snapshot_bytes(&buf).is_err());
    }

    #[test]
    fn magic_sniffing() {
        assert!(is_snapshot(&snap_bytes(&CompactCsr::empty(1))));
        assert!(!is_snapshot(b"p edge 4 3"));
        assert!(!is_snapshot(b"PGC"));
    }

    #[test]
    fn empty_graph_round_trips() {
        for n in [0usize, 1, 17] {
            let g = CompactCsr::empty(n);
            let back = load_snapshot_bytes(&snap_bytes(&g)).unwrap();
            assert_eq!(back, g, "n={n}");
        }
    }

    #[test]
    fn mapped_view_agrees_with_owned() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 8,
                edge_factor: 8,
            },
            11,
        );
        let dir = std::env::temp_dir().join(format!("pgc-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.pgcs");
        write_snapshot(&g, &path).unwrap();
        let m = MappedSnapshot::<()>::open(&path).unwrap();
        assert_eq!(m.n(), g.n());
        assert_eq!(m.num_arcs(), g.num_arcs());
        assert_eq!(GraphView::max_degree(&m), g.max_degree());
        assert_eq!(GraphView::min_degree(&m), g.min_degree());
        assert!(m.is_mapped() && !g.is_mapped());
        for v in g.vertices() {
            assert_eq!(m.neighbors(v), g.neighbors(v));
        }
        assert_eq!(m, g);
        assert!(m.has_edge(g.edges().next().unwrap().0, g.edges().next().unwrap().1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapped_weighted_view() {
        let g = from_weighted_edges(4, &[(0u32, 1u32, 2.5f64), (1, 2, 4.0), (2, 3, -1.0)]);
        let dir = std::env::temp_dir().join(format!("pgc-snapw-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.pgcs");
        write_snapshot(&g, &path).unwrap();
        let m = MappedSnapshot::<f64>::open(&path).unwrap();
        assert_eq!(m.edge_weight(2, 1), Some(4.0));
        assert_eq!(
            m.weighted_neighbors(1).collect::<Vec<_>>(),
            vec![(0, 2.5), (2, 4.0)]
        );
        assert_eq!(m.total_weight(), 5.5);
        assert!(MappedSnapshot::<u32>::open(&path).is_err(), "kind mismatch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapped_open_charges_no_heap_array_bytes() {
        let g = from_weighted_edges(5, &[(0u32, 1u32, 2.5f64), (1, 2, 4.0), (3, 4, 1.0)]);
        let dir = std::env::temp_dir().join(format!("pgc-snapm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.pgcs");
        write_snapshot(&g, &path).unwrap();
        let arrays = |fp: &GraphMemory| fp.offset_bytes() + fp.neighbor_bytes() + fp.weight_bytes;

        let owned = GraphView::memory_footprint(&load_weighted_snapshot::<f64>(&path).unwrap());
        assert!(owned.weight_bytes > 0);
        assert_eq!(owned.mapped_bytes, 0);
        assert_eq!(
            owned.total_bytes(),
            arrays(&owned),
            "owned arrays are all heap"
        );

        let mapped = GraphView::memory_footprint(&MappedSnapshot::<f64>::open(&path).unwrap());
        assert_eq!(mapped.mapped_bytes, arrays(&mapped));
        assert_eq!(
            mapped.total_bytes(),
            0,
            "mapped arrays are page cache, not heap"
        );
        assert_eq!(mapped.structural_bytes(), owned.structural_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_snapshot_round_trips() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 8,
                edge_factor: 8,
            },
            21,
        );
        let dir = std::env::temp_dir().join(format!("pgc-snapc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.pgcs");
        let written = write_snapshot_compressed(&g, &path).unwrap();
        let v1_len = snap_bytes(&g).len() as u64;
        assert!(
            written < v1_len,
            "v2 file ({written} B) should beat v1 ({v1_len} B)"
        );

        // Transparent decode path: the plain loader accepts v2.
        assert_eq!(load_snapshot(&path).unwrap(), g);

        // Zero-copy path: arena served from the mapping.
        let c = load_compressed_snapshot::<()>(&path).unwrap();
        assert_eq!(c.to_compact(), g);
        let fp = GraphView::memory_footprint(&c);
        assert_eq!(fp.encoded_bytes, 0, "mapped arena is page-cache, not heap");
        assert!(c.encoded_bytes() > 0);
        assert_eq!(
            fp.encoded_mapped_bytes,
            c.encoded_bytes(),
            "representation length must stay visible for mapped arenas"
        );
        assert_eq!(fp.encoded_len(), c.encoded_bytes());
        // Traversed representation counts the mapped arena and offset
        // arrays; the heap charge does not (unit payload ⇒ no weight
        // bytes).
        assert_eq!(
            fp.structural_bytes(),
            fp.total_bytes() + fp.encoded_len() + fp.mapped_bytes
        );

        // A raw-array in-place view cannot serve a v2 file.
        assert!(MappedSnapshot::<()>::open(&path).is_err());

        // v1 files feed the compressed loader too (materialize + encode).
        let v1_path = dir.join("g1.pgcs");
        write_snapshot(&g, &v1_path).unwrap();
        let c1 = load_compressed_snapshot::<()>(&v1_path).unwrap();
        assert_eq!(c1.to_compact(), g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_weighted_snapshot_round_trips() {
        let g = from_weighted_edges(6, &[(0u32, 1u32, 2.5f64), (1, 2, -4.0), (3, 5, 0.25)]);
        let c = CompressedCsr::from_weighted(&g);
        let dir = std::env::temp_dir().join(format!("pgc-snapcw-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.pgcs");
        write_compressed_snapshot(&c, &path).unwrap();
        let back = load_compressed_snapshot::<f64>(&path).unwrap();
        assert_eq!(back.to_weighted(), g);
        assert!(
            load_compressed_snapshot::<u32>(&path).is_err(),
            "kind mismatch"
        );
        // Weighted v2 decodes transparently through the weighted loader.
        assert_eq!(load_weighted_snapshot::<f64>(&path).unwrap(), g);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_truncation_and_flips_rejected() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 200, m: 800 }, 13);
        let c = CompressedCsr::from_compact(&g);
        let mut buf = Vec::new();
        write_compressed_snapshot_to(&c, &mut buf).unwrap();
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN, buf.len() - 1] {
            let err = load_snapshot_bytes(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut {cut}");
        }
        for pos in [0usize, 9, 15, 20, 40, 50, 60, HEADER_LEN + 3, buf.len() - 2] {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(
                load_snapshot_bytes(&bad).is_err(),
                "bit flip at {pos} must be rejected"
            );
        }
    }

    #[test]
    fn checksum_valid_but_malformed_runs_error_not_panic() {
        // A lying dlen inside the arena with both checksums re-sealed is
        // corrupt-but-checksum-valid: FNV is trivially recomputable, so
        // the loaders cannot lean on it — every load path must surface
        // InvalidData instead of panicking mid-decode in a par_iter.
        let g = generate(&GraphSpec::ErdosRenyi { n: 300, m: 1500 }, 17);
        let c = CompressedCsr::from_compact(&g);
        let mut buf = Vec::new();
        write_compressed_snapshot_to(&c, &mut buf).unwrap();
        let (_, layout) = verify::<()>(&buf).unwrap();
        // Overwrite the first block header's dlen so the run overruns
        // its slice, then re-seal payload + header checksums.
        buf[layout.nbr_start + 4..layout.nbr_start + 6].copy_from_slice(&u16::MAX.to_le_bytes());
        let mut payload = FNV_OFFSET;
        for section in layout.sections(&buf) {
            payload = hash_section(payload, section);
        }
        buf[40..48].copy_from_slice(&payload.to_ne_bytes());
        let ck = hash_section(FNV_OFFSET, &buf[..56]);
        buf[56..64].copy_from_slice(&ck.to_ne_bytes());
        // Decode path (materialize → decode_arena).
        let err = load_snapshot_bytes(&buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("malformed varint run"), "{err}");
        // Zero-copy path (load_compressed_snapshot → validate_compressed).
        let dir = std::env::temp_dir().join(format!("pgc-snapbad-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.pgcs");
        std::fs::write(&path, &buf).unwrap();
        let err = load_compressed_snapshot::<()>(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_reserved_bytes_must_be_zero() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let mut buf = snap_bytes(&g);
        // Set a flag bit in a v1 header and re-seal the header checksum:
        // the version/flags cross-check must still reject it.
        buf[15] = FLAG_COMPRESSED;
        let ck = hash_section(FNV_OFFSET, &buf[..56]);
        buf[56..64].copy_from_slice(&ck.to_ne_bytes());
        let err = load_snapshot_bytes(&buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn inspect_reports_both_versions() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 400, attach: 4 }, 2);
        let dir = std::env::temp_dir().join(format!("pgc-snapi-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("v1.pgcs");
        let p2 = dir.join("v2.pgcs");
        write_snapshot(&g, &p1).unwrap();
        write_snapshot_compressed(&g, &p2).unwrap();
        let i1 = inspect_snapshot(&p1).unwrap();
        let i2 = inspect_snapshot(&p2).unwrap();
        assert_eq!(i1.version, 1);
        assert!(!i1.compressed);
        assert_eq!(i1.neighbor_bytes, 4 * g.num_arcs());
        assert_eq!(i1.byte_offsets_bytes, 0);
        assert_eq!(i1.compression_ratio(), 1.0);
        assert_eq!(i2.version, 2);
        assert!(i2.compressed);
        assert_eq!(i2.n, g.n() as u64);
        assert_eq!(i2.num_arcs, g.num_arcs() as u64);
        assert_eq!(i2.max_deg, g.max_degree());
        assert!(i2.neighbor_bytes < i1.neighbor_bytes);
        assert!(i2.compression_ratio() < 1.0);
        assert!(i2.byte_offsets_bytes > 0);
        assert!(inspect_snapshot(&dir.join("missing.pgcs")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Re-seal the header checksum after editing header bytes.
    fn reseal_header(buf: &mut [u8]) {
        let ck = hash_section(FNV_OFFSET, &buf[..56]);
        buf[56..64].copy_from_slice(&ck.to_ne_bytes());
    }

    #[test]
    fn header_degree_extremes_checked_by_every_v1_load() {
        // A checksum-valid v1 file whose header claims Δ = 1: the mapped
        // open must reject it like the copying load, not serve a graph
        // whose Δ undersizes every palette.
        let g = generate(&GraphSpec::BarabasiAlbert { n: 400, attach: 4 }, 2);
        assert!(g.max_degree() > 1);
        let mut buf = snap_bytes(&g);
        buf[32..36].copy_from_slice(&1u32.to_ne_bytes());
        reseal_header(&mut buf);
        let dir = std::env::temp_dir().join(format!("pgc-snapdeg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lying-delta.pgcs");
        std::fs::write(&path, &buf).unwrap();
        let copied = load_snapshot_bytes(&buf).unwrap_err();
        let mapped = MappedSnapshot::<()>::open(&path).unwrap_err();
        for err in [copied, mapped] {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("degree extremes"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn section_table_overflow_is_invalid_data_not_panic() {
        // A v2 header whose arena length wraps the section sum back below
        // the neighbors' start, with the file cut to the wrapped total.
        let g = generate(&GraphSpec::ErdosRenyi { n: 100, m: 300 }, 4);
        let mut buf = Vec::new();
        write_compressed_snapshot_to(&CompressedCsr::from_compact(&g), &mut buf).unwrap();
        let (_, layout) = verify::<()>(&buf).unwrap();
        buf[48..56].copy_from_slice(&(u64::MAX - 7).to_ne_bytes());
        reseal_header(&mut buf);
        buf.truncate(layout.nbr_start - 8);
        let dir = std::env::temp_dir().join(format!("pgc-snapwrap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrapped.pgcs");
        std::fs::write(&path, &buf).unwrap();
        let errs = [
            load_snapshot_bytes(&buf).unwrap_err(),
            load_compressed_snapshot::<()>(&path).unwrap_err(),
            inspect_snapshot(&path).unwrap_err(),
        ];
        for err in errs {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hash_section_matches_padded_equivalent() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];
        let padded = {
            let mut p = data.to_vec();
            p.resize(16, 0);
            p
        };
        assert_eq!(
            hash_section(FNV_OFFSET, &data),
            hash_section(FNV_OFFSET, &padded)
        );
    }
}
