//! Graph I/O.
//!
//! Three interchange formats so users can run the paper's real datasets
//! when they have them:
//!
//! * whitespace-separated **edge lists** (`u v` per line, optional third
//!   weight column, `#` comments) — the SNAP/KONECT distribution format,
//! * **DIMACS `.col`** (`p edge n m` header, `e u v` lines, 1-based) — the
//!   classic coloring-benchmark format,
//! * **Matrix Market** coordinate files — the SuiteSparse format, with
//!   the value column parsed for weighted reads.
//!
//! Every reader is a replayable [`EdgeSource`]: parsing happens inside
//! [`EdgeSource::replay`], so the two-pass streaming builder
//! ([`crate::stream`]) ingests a file with **two sequential scans and no
//! edge buffering**. The [`Reopen`] trait abstracts "give me a fresh
//! reader over the same bytes" — a path reopens the file, a byte slice
//! rewinds for free — so the same parser serves the streaming
//! [`read_edge_list_path`]-style entry points and the buffered
//! [`read_edge_list`]-style `BufRead` compatibility APIs (which slurp the
//! input once, then stream over the in-memory bytes: text is the only
//! buffer, never a decoded arc list).
//!
//! ## The byte-level fast path
//!
//! Text parsing dominates `read_*_path` ingest: both builder passes
//! parse the whole file. So the readers work on raw bytes, in two layers:
//!
//! * **Block line scanner** (`scan_blocks`). Blocks come straight from
//!   the reader's `fill_buf`/`consume` — a fixed 64 KiB `BufReader` for
//!   paths, the whole slice (one zero-copy block) for in-memory bytes —
//!   and the parser sees runs of complete lines borrowed from the block.
//!   Only a line that straddles two blocks is copied, into a small carry
//!   buffer. No per-line copy, `String` or UTF-8 validation.
//! * **Fused `u v` fast path** (`fast_pair`), for unweighted edge lists:
//!   `digits [ \t]+ digits [ \t]* \r? \n` is parsed in one forward
//!   pass that finds the line end inside the digit loop itself — no
//!   separate newline search, no second scan of each token. Ids take at
//!   most 10 digits and at most `u32::MAX`.
//!
//! Any other line shape — comments, blank lines, leading whitespace,
//! trailing columns, form feeds, overlong or overflowing ids, garbage —
//! falls back to the general per-line parser (`trim_ascii`, then a
//! whitespace tokenizer and the ASCII-decimal `parse_u32_ascii`), which
//! the DIMACS, Matrix Market and weighted edge-list readers use for every
//! line. So the fast path never changes which files are accepted, the
//! pairs they yield, or the error a rejected file gets; the test module
//! pins that against the retired `read_until` line-at-a-time parser at
//! block sizes down to one byte. Only weight fields (floats are genuinely
//! hard to parse) fall back to `str::parse` via
//! [`EdgeWeight::parse_ascii`]. `benches/ingest.rs` measures the parser
//! against a `String`-lines baseline.

use crate::compact::CompactCsr;
use crate::stream::{build_compact, build_weighted, ChunkFn, EdgeSink, EdgeSource};
use crate::view::{GraphView, WeightedView};
use crate::weight::EdgeWeight;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Input that can be opened for reading any number of times, yielding the
/// identical byte stream — what makes a file-backed [`EdgeSource`]
/// replayable.
pub trait Reopen: Sync {
    /// The reader one scan runs over.
    type Reader: BufRead;
    /// Open a fresh reader at the start of the input.
    fn reopen(&self) -> std::io::Result<Self::Reader>;
}

/// A path reopens the underlying file (the streaming case: two
/// sequential scans of the file, zero buffering).
impl Reopen for PathBuf {
    type Reader = BufReader<File>;

    fn reopen(&self) -> std::io::Result<Self::Reader> {
        Ok(BufReader::with_capacity(64 << 10, File::open(self)?))
    }
}

/// In-memory bytes replay for free (the compatibility case and tests).
impl<'a> Reopen for &'a [u8] {
    type Reader = &'a [u8];

    fn reopen(&self) -> std::io::Result<Self::Reader> {
        Ok(*self)
    }
}

// ---------------------------------------------------------------------
// Block line scanner and token machinery (the parse fast path)
// ---------------------------------------------------------------------

/// The block line scanner behind every text reader. Takes blocks from
/// `reader` with `fill_buf`/`consume` and hands `scan` runs of whole
/// lines borrowed straight from the block: every run ends just after a
/// `\n`, except a last line the input does not terminate. Only a line
/// that straddles two blocks is copied — into `carry`, which is handed
/// to `scan` on its own once the line's `\n` arrives.
fn scan_blocks<R: BufRead>(
    mut reader: R,
    mut scan: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let block = match reader.fill_buf() {
            Ok([]) => break,
            Ok(block) => block,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let len = block.len();
        let mut rest = block;
        if !carry.is_empty() {
            let Some(i) = rest.iter().position(|&b| b == b'\n') else {
                carry.extend_from_slice(rest);
                reader.consume(len);
                continue;
            };
            carry.extend_from_slice(&rest[..=i]);
            scan(&carry)?;
            carry.clear();
            rest = &rest[i + 1..];
        }
        let whole = rest.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if whole > 0 {
            scan(&rest[..whole])?;
        }
        carry.extend_from_slice(&rest[whole..]);
        reader.consume(len);
    }
    if carry.is_empty() {
        Ok(())
    } else {
        scan(&carry)
    }
}

/// Split the first line (through its `\n`, if any) off the front of a
/// run from [`scan_blocks`].
#[inline]
fn split_line(run: &[u8]) -> (&[u8], &[u8]) {
    let end = run
        .iter()
        .position(|&b| b == b'\n')
        .map_or(run.len(), |i| i + 1);
    run.split_at(end)
}

/// Feed every input line to `f` as a whitespace-trimmed byte slice
/// borrowed from the [`scan_blocks`] block — no per-line copy, `String`
/// or UTF-8 check.
fn for_each_line<R: BufRead>(
    reader: R,
    mut f: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    scan_blocks(reader, |mut run| {
        while !run.is_empty() {
            let (line, rest) = split_line(run);
            f(line.trim_ascii())?;
            run = rest;
        }
        Ok(())
    })
}

/// Decode the decimal id starting at `s[i]`: at most 10 digits and at
/// most `u32::MAX`, else `None`. Returns the id and the index just past
/// its digits. The loop stops after an 11th digit, so `x` cannot
/// overflow.
#[inline(always)]
fn fast_id(s: &[u8], mut i: usize) -> Option<(u32, usize)> {
    let start = i;
    let stop = s.len().min(start + 11);
    let mut x: u64 = 0;
    while i < stop {
        let d = s[i].wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        x = x * 10 + d as u64;
        i += 1;
    }
    let digits = i - start;
    (digits != 0 && digits <= 10 && x <= u32::MAX as u64).then_some((x as u32, i))
}

/// The fused fast path for unweighted edge-list lines: parse
/// `digits [ \t]+ digits [ \t]* \r? \n` at the front of `s` in one
/// forward pass, finding the line end on the way. Returns `(u, v, len)`
/// with `len` counting the `\n`, or `None` for any other line shape —
/// which the caller hands to the general per-line parser, so the fast
/// path never accepts or rejects anything that parser would not.
#[inline(always)]
fn fast_pair(s: &[u8]) -> Option<(u32, u32, usize)> {
    let blank = |s: &[u8], mut i: usize| {
        while i < s.len() && (s[i] == b' ' || s[i] == b'\t') {
            i += 1;
        }
        i
    };
    let (u, i) = fast_id(s, 0)?;
    let j = blank(s, i);
    if j == i {
        return None;
    }
    let (v, i) = fast_id(s, j)?;
    let mut i = blank(s, i);
    if s.get(i) == Some(&b'\r') {
        i += 1;
    }
    (s.get(i) == Some(&b'\n')).then_some((u, v, i + 1))
}

/// Split the next whitespace-separated token off the front of `s`.
#[inline]
fn next_token<'a>(s: &mut &'a [u8]) -> Option<&'a [u8]> {
    let mut i = 0;
    while i < s.len() && s[i].is_ascii_whitespace() {
        i += 1;
    }
    let start = i;
    while i < s.len() && !s[i].is_ascii_whitespace() {
        i += 1;
    }
    let tok = &s[start..i];
    *s = &s[i..];
    (!tok.is_empty()).then_some(tok)
}

/// Byte-level integer fast path: ASCII decimal → `u32`, rejecting
/// non-digits and overflow. An 11+-digit token cannot fit, so the digit
/// loop runs at most 10 times and accumulates in `u64` without
/// per-iteration overflow checks.
#[inline]
fn parse_u32_ascii(tok: &[u8]) -> Option<u32> {
    if tok.is_empty() || tok.len() > 10 {
        return None;
    }
    let mut x: u64 = 0;
    for &b in tok {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        x = x * 10 + d as u64;
    }
    (x <= u32::MAX as u64).then_some(x as u32)
}

fn lossy(line: &[u8]) -> String {
    String::from_utf8_lossy(line).into_owned()
}

/// Take and decode one vertex-id token; `InvalidData` with the offending
/// line if missing or malformed.
#[inline]
fn parse_id_field(rest: &mut &[u8], what: &str, line: &[u8]) -> std::io::Result<u32> {
    next_token(rest)
        .and_then(parse_u32_ascii)
        .ok_or_else(|| bad(format!("missing or bad {what} in line {:?}", lossy(line))))
}

/// Take and decode one weight token via [`EdgeWeight::parse_ascii`].
fn parse_weight_field<W: EdgeWeight>(rest: &mut &[u8], line: &[u8]) -> std::io::Result<W> {
    let tok = next_token(rest).ok_or_else(|| {
        bad(format!(
            "missing weight column in line {:?} (weighted read of a 2-column input?)",
            lossy(line)
        ))
    })?;
    W::parse_ascii(tok).ok_or_else(|| bad(format!("bad weight in line {:?}", lossy(line))))
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

/// SNAP-style edge list as a streaming [`EdgeSource`]: one `u v` pair —
/// or `u v w` triple, when read weighted — per line, `#`/`%` comment
/// lines. Vertex ids may be sparse; the builder sizes the graph by the
/// maximum id + 1 (so [`num_vertices`](EdgeSource::num_vertices) reports
/// 0 — unknown until scanned). Unweighted reads ignore any trailing
/// columns; weighted reads require the third column on every line.
pub struct EdgeListSource<R: Reopen> {
    input: R,
}

impl<R: Reopen> EdgeListSource<R> {
    /// Wrap a replayable input.
    pub fn new(input: R) -> Self {
        Self { input }
    }
}

impl<W: EdgeWeight, R: Reopen> EdgeSource<W> for EdgeListSource<R> {
    fn num_vertices(&self) -> usize {
        0
    }

    fn replay(&self, emit: &mut ChunkFn<'_, W>) -> std::io::Result<()> {
        let reader = self.input.reopen()?;
        let mut sink = EdgeSink::new(emit);
        if !W::IS_UNIT {
            return for_each_line(reader, |line| edge_list_line(line, &mut sink));
        }
        scan_blocks(reader, |mut run| {
            while !run.is_empty() {
                run = match fast_pair(run) {
                    Some((u, v, len)) => {
                        sink.push_weighted(u, v, W::default());
                        &run[len..]
                    }
                    None => {
                        let (line, rest) = split_line(run);
                        edge_list_line(line.trim_ascii(), &mut sink)?;
                        rest
                    }
                };
            }
            Ok(())
        })
    }
}

/// The general edge-list line parser: skip blanks and `#`/`%` comments,
/// else take two ids (plus the weight column on weighted reads; trailing
/// columns of unweighted reads are ignored).
fn edge_list_line<W: EdgeWeight>(line: &[u8], sink: &mut EdgeSink<'_, W>) -> std::io::Result<()> {
    if line.is_empty() || line[0] == b'#' || line[0] == b'%' {
        return Ok(());
    }
    let mut rest = line;
    let u = parse_id_field(&mut rest, "source", line)?;
    let v = parse_id_field(&mut rest, "target", line)?;
    let w = if W::IS_UNIT {
        W::default()
    } else {
        parse_weight_field::<W>(&mut rest, line)?
    };
    sink.push_weighted(u, v, w);
    Ok(())
}

/// DIMACS `.col` as a streaming [`EdgeSource`]: `c` comments, one
/// `p edge <n> <m>` line, `e u v` edges with **1-based** vertex ids.
/// The header is parsed eagerly by [`DimacsSource::new`] (a short partial
/// read), so the declared `n` and edge hint are known before the scans.
pub struct DimacsSource<R: Reopen> {
    input: R,
    n: usize,
    m: usize,
}

impl<R: Reopen> DimacsSource<R> {
    /// Wrap a replayable input, reading ahead to the `p edge` header.
    /// Errors if the header is missing or the problem type unsupported.
    pub fn new(input: R) -> std::io::Result<Self> {
        let mut header = None;
        for line in input.reopen()?.lines() {
            let line = line?;
            if let Some(rest) = line.trim().strip_prefix("p ") {
                let t = line.trim();
                let mut it = rest.split_whitespace();
                let kind = it.next().unwrap_or("");
                if kind != "edge" && kind != "edges" && kind != "col" {
                    return Err(bad(format!("unsupported problem type {kind:?}")));
                }
                let n = parse_field(it.next(), "n", t)? as usize;
                let m = parse_field(it.next(), "m", t)
                    .map(|m| m as usize)
                    .unwrap_or(0);
                header = Some((n, m));
                break;
            }
        }
        let (n, m) = header.ok_or_else(|| bad("missing 'p edge' header".into()))?;
        Ok(Self { input, n, m })
    }

    /// Declared vertex count from the `p edge` header.
    pub fn declared_n(&self) -> usize {
        self.n
    }
}

impl<R: Reopen> EdgeSource for DimacsSource<R> {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn edge_hint(&self) -> Option<usize> {
        Some(self.m)
    }

    fn replay(&self, emit: &mut ChunkFn<'_>) -> std::io::Result<()> {
        let reader = self.input.reopen()?;
        let mut sink = EdgeSink::new(emit);
        for_each_line(reader, |line| self.line(line, &mut sink))
    }
}

impl<R: Reopen> DimacsSource<R> {
    /// Parse one trimmed line: `e u v` edges, everything else skipped.
    fn line(&self, line: &[u8], sink: &mut EdgeSink<'_>) -> std::io::Result<()> {
        let [b'e', sp, ..] = line else {
            return Ok(());
        };
        if !sp.is_ascii_whitespace() {
            return Ok(());
        }
        let mut rest = &line[1..];
        let u = parse_id_field(&mut rest, "u", line)?;
        let v = parse_id_field(&mut rest, "v", line)?;
        if u == 0 || v == 0 {
            return Err(bad(format!(
                "DIMACS ids are 1-based, got line {:?}",
                lossy(line)
            )));
        }
        if u as usize > self.n || v as usize > self.n {
            return Err(bad(format!(
                "edge ({u},{v}) out of declared range n={}",
                self.n
            )));
        }
        sink.push(u - 1, v - 1);
        Ok(())
    }
}

/// The value-field kind a Matrix Market header declares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MmField {
    /// `pattern`: entries are `row col`, no value.
    Pattern,
    /// `real` / `double`: entries are `row col value`.
    Real,
    /// `integer`: entries are `row col value` with integral values.
    Integer,
}

/// Matrix Market coordinate file as a streaming [`EdgeSource`]:
/// rows/columns are vertices, entries are edges. The `%%MatrixMarket`
/// header and size line are parsed eagerly by [`MatrixMarketSource::new`],
/// which rejects `complex` files outright (a weight cannot represent the
/// imaginary column faithfully). Entry lines are validated against the
/// declared field kind — a `pattern` file carrying values, or a
/// `real`/`integer` file missing them, is `InvalidData` instead of a
/// silently wrong graph — and weighted reads parse the value column into
/// the edge weight (max on duplicates, like every source).
pub struct MatrixMarketSource<R: Reopen> {
    input: R,
    n: usize,
    nnz: usize,
    field: MmField,
}

impl<R: Reopen> MatrixMarketSource<R> {
    /// Wrap a replayable input, reading ahead to the header and size
    /// line. Errors on missing/dense/non-matrix/`complex` headers.
    pub fn new(input: R) -> std::io::Result<Self> {
        let mut lines = input.reopen()?.lines();
        let header = loop {
            match lines.next() {
                Some(line) => {
                    let line = line?;
                    if line.starts_with("%%MatrixMarket") {
                        break line;
                    } else if !line.trim().is_empty() {
                        return Err(bad("missing %%MatrixMarket header".into()));
                    }
                }
                None => return Err(bad("empty Matrix Market file".into())),
            }
        };
        let lower = header.to_ascii_lowercase();
        let mut tokens = lower.split_whitespace().skip(1); // "%%matrixmarket"
        if tokens.next() != Some("matrix") {
            return Err(bad(format!("unsupported Matrix Market header {header:?}")));
        }
        if tokens.next() != Some("coordinate") {
            return Err(bad(format!(
                "unsupported Matrix Market format in {header:?} (only 'coordinate' is sparse)"
            )));
        }
        let field = match tokens.next() {
            Some("pattern") => MmField::Pattern,
            Some("real") | Some("double") => MmField::Real,
            Some("integer") => MmField::Integer,
            Some("complex") => {
                return Err(bad(format!(
                    "complex Matrix Market files are unsupported (header {header:?}): \
                     an edge weight cannot represent the imaginary column"
                )))
            }
            other => {
                return Err(bad(format!(
                    "missing or unknown Matrix Market field {other:?} in header {header:?}"
                )))
            }
        };
        // Size line: first non-comment line after the header.
        for line in lines {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let nrows = parse_field(it.next(), "rows", t)? as usize;
            let ncols = parse_field(it.next(), "cols", t)? as usize;
            let nnz = parse_field(it.next(), "nnz", t)? as usize;
            return Ok(Self {
                input,
                n: nrows.max(ncols),
                nnz,
                field,
            });
        }
        Err(bad("missing Matrix Market size line".into()))
    }
}

impl<W: EdgeWeight, R: Reopen> EdgeSource<W> for MatrixMarketSource<R> {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn edge_hint(&self) -> Option<usize> {
        Some(self.nnz)
    }

    fn replay(&self, emit: &mut ChunkFn<'_, W>) -> std::io::Result<()> {
        if !W::IS_UNIT && self.field == MmField::Pattern {
            return Err(bad(
                "weighted read of a 'pattern' Matrix Market file: it declares no values".into(),
            ));
        }
        let reader = self.input.reopen()?;
        let mut sink = EdgeSink::new(emit);
        let mut past_size_line = false;
        for_each_line(reader, |line| {
            self.line(line, &mut sink, &mut past_size_line)
        })
    }
}

impl<R: Reopen> MatrixMarketSource<R> {
    /// Parse one trimmed line: comments and the size line (already
    /// validated by [`MatrixMarketSource::new`]) are skipped, entries are
    /// checked against the declared field kind.
    fn line<W: EdgeWeight>(
        &self,
        line: &[u8],
        sink: &mut EdgeSink<'_, W>,
        past_size_line: &mut bool,
    ) -> std::io::Result<()> {
        if line.is_empty() || line[0] == b'%' {
            return Ok(());
        }
        if !*past_size_line {
            *past_size_line = true;
            return Ok(());
        }
        let mut rest = line;
        let r = parse_id_field(&mut rest, "row", line)?;
        let c = parse_id_field(&mut rest, "col", line)?;
        if r == 0 || c == 0 {
            return Err(bad(format!(
                "Matrix Market ids are 1-based: {:?}",
                lossy(line)
            )));
        }
        if r as usize > self.n || c as usize > self.n {
            return Err(bad(format!("entry ({r},{c}) exceeds size {}", self.n)));
        }
        // Enforce the declared field kind: an entry shape that
        // contradicts the header means the header (or file) is wrong,
        // and silently guessing would hand back a wrong graph.
        let w = match self.field {
            MmField::Pattern => {
                if next_token(&mut rest).is_some() {
                    return Err(bad(format!(
                        "'pattern' Matrix Market entry carries a value: {:?}",
                        lossy(line)
                    )));
                }
                W::default()
            }
            MmField::Real | MmField::Integer => {
                let tok = next_token(&mut rest).ok_or_else(|| {
                    bad(format!(
                        "Matrix Market entry missing its declared value: {:?}",
                        lossy(line)
                    ))
                })?;
                if next_token(&mut rest).is_some() {
                    return Err(bad(format!(
                        "Matrix Market entry has extra columns (complex data \
                         under a non-complex header?): {:?}",
                        lossy(line)
                    )));
                }
                if W::IS_UNIT {
                    W::default()
                } else {
                    W::parse_ascii(tok).ok_or_else(|| {
                        bad(format!("bad Matrix Market value in {:?}", lossy(line)))
                    })?
                }
            }
        };
        sink.push_weighted(r - 1, c - 1, w);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Streaming entry points (two sequential file scans, no buffering)
// ---------------------------------------------------------------------

/// Sniff the first bytes of `path` for the binary-snapshot magic
/// ([`crate::snapshot`]). `Ok(true)` means the file is a snapshot and
/// every `read_*_path` entry point takes the fast binary path; a short
/// or unreadable prefix is simply "not a snapshot" (text parsing will
/// produce its own error if the file is truly unreadable).
fn sniff_snapshot(path: &Path) -> bool {
    let mut prefix = [0u8; 8];
    match File::open(path).and_then(|mut f| f.read_exact(&mut prefix)) {
        Ok(()) => crate::snapshot::is_snapshot(&prefix),
        Err(_) => false,
    }
}

/// Read a SNAP-style edge list from a file with two sequential scans and
/// no edge buffering. A binary snapshot (sniffed by magic) loads on the
/// fast path instead, regardless of extension.
pub fn read_edge_list_path(path: &Path) -> std::io::Result<CompactCsr> {
    if sniff_snapshot(path) {
        return crate::snapshot::load_snapshot(path);
    }
    build_compact(&EdgeListSource::new(path.to_path_buf()))
}

/// Read a weighted (`u v w` per line) edge list from a file with two
/// sequential scans and no edge buffering. A binary snapshot (sniffed by
/// magic) loads on the fast path instead; its stored weight kind must
/// match `W`.
pub fn read_weighted_edge_list_path<W: EdgeWeight>(path: &Path) -> std::io::Result<CompactCsr<W>> {
    if sniff_snapshot(path) {
        return crate::snapshot::load_weighted_snapshot::<W>(path);
    }
    build_weighted(&EdgeListSource::new(path.to_path_buf()))
}

/// Read DIMACS `.col` from a file with two sequential scans and no edge
/// buffering. A binary snapshot (sniffed by magic) loads on the fast
/// path instead.
pub fn read_dimacs_col_path(path: &Path) -> std::io::Result<CompactCsr> {
    if sniff_snapshot(path) {
        return crate::snapshot::load_snapshot(path);
    }
    build_compact(&DimacsSource::new(path.to_path_buf())?)
}

/// Read a Matrix Market coordinate file with two sequential scans and no
/// edge buffering. A binary snapshot (sniffed by magic) loads on the
/// fast path instead.
pub fn read_matrix_market_path(path: &Path) -> std::io::Result<CompactCsr> {
    if sniff_snapshot(path) {
        return crate::snapshot::load_snapshot(path);
    }
    build_compact(&MatrixMarketSource::new(path.to_path_buf())?)
}

/// Read a Matrix Market coordinate file as a weighted graph (the value
/// column becomes the edge weight; `pattern`/`complex` files are
/// rejected) with two sequential scans and no edge buffering. A binary
/// snapshot (sniffed by magic) loads on the fast path instead.
pub fn read_weighted_matrix_market_path<W: EdgeWeight>(
    path: &Path,
) -> std::io::Result<CompactCsr<W>> {
    if sniff_snapshot(path) {
        return crate::snapshot::load_weighted_snapshot::<W>(path);
    }
    build_weighted(&MatrixMarketSource::new(path.to_path_buf())?)
}

// ---------------------------------------------------------------------
// `BufRead` compatibility entry points
// ---------------------------------------------------------------------

/// Read the whole input once: a one-shot reader cannot be replayed, so
/// the compatibility APIs stream over the slurped text instead (the raw
/// bytes are the only buffer — no decoded arc list is ever built; the
/// builder's two passes each re-parse the in-memory text).
fn slurp<R: BufRead>(mut reader: R) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Parse a SNAP-style edge list: one `u v` pair per line; lines starting
/// with `#` or `%` are comments. Vertex ids may be sparse; the graph is
/// sized by the maximum id + 1. Prefer [`read_edge_list_path`] for files:
/// it streams in two scans instead of buffering the text. Like every
/// two-pass ingestion, the text is *parsed* twice (count + scatter) —
/// the price of never holding a decoded edge list.
pub fn read_edge_list<R: BufRead>(reader: R) -> std::io::Result<CompactCsr> {
    let bytes = slurp(reader)?;
    build_compact(&EdgeListSource::new(&bytes[..]))
}

/// Parse a weighted (`u v w` per line) edge list. Prefer
/// [`read_weighted_edge_list_path`] for files.
pub fn read_weighted_edge_list<W: EdgeWeight, R: BufRead>(
    reader: R,
) -> std::io::Result<CompactCsr<W>> {
    let bytes = slurp(reader)?;
    build_weighted(&EdgeListSource::new(&bytes[..]))
}

/// Parse DIMACS `.col`: `c` comments, one `p edge <n> <m>` line, `e u v`
/// edges with **1-based** vertex ids. Prefer [`read_dimacs_col_path`] for
/// files.
pub fn read_dimacs_col<R: BufRead>(reader: R) -> std::io::Result<CompactCsr> {
    let bytes = slurp(reader)?;
    build_compact(&DimacsSource::new(&bytes[..])?)
}

/// Parse a Matrix Market pattern/coordinate file (`%%MatrixMarket matrix
/// coordinate ...`) as an undirected graph. Prefer
/// [`read_matrix_market_path`] for files.
pub fn read_matrix_market<R: BufRead>(reader: R) -> std::io::Result<CompactCsr> {
    let bytes = slurp(reader)?;
    build_compact(&MatrixMarketSource::new(&bytes[..])?)
}

/// Parse a Matrix Market coordinate file as a weighted graph. Prefer
/// [`read_weighted_matrix_market_path`] for files.
pub fn read_weighted_matrix_market<W: EdgeWeight, R: BufRead>(
    reader: R,
) -> std::io::Result<CompactCsr<W>> {
    let bytes = slurp(reader)?;
    build_weighted(&MatrixMarketSource::new(&bytes[..])?)
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

/// Write an edge list (`u v` per line, each undirected edge once).
pub fn write_edge_list<G: GraphView, W: Write>(g: &G, mut w: W) -> std::io::Result<()> {
    writeln!(w, "# n={} m={}", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Write a weighted edge list (`u v w` per line, each undirected edge
/// once; the weight prints through [`EdgeWeight::to_f64`], which
/// round-trips `f32`/`f64`/`u32` exactly).
pub fn write_weighted_edge_list<G: WeightedView, W: Write>(g: &G, mut w: W) -> std::io::Result<()> {
    writeln!(w, "# n={} m={} weighted", g.n(), g.m())?;
    for (u, v, wt) in g.weighted_edges() {
        writeln!(w, "{u} {v} {}", wt.to_f64())?;
    }
    Ok(())
}

/// Write DIMACS `.col`.
pub fn write_dimacs_col<G: GraphView, W: Write>(g: &G, mut w: W) -> std::io::Result<()> {
    writeln!(w, "c generated by parallel-graph-coloring")?;
    writeln!(w, "p edge {} {}", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(w, "e {} {}", u + 1, v + 1)?;
    }
    Ok(())
}

fn parse_field(field: Option<&str>, what: &str, line: &str) -> std::io::Result<u32> {
    field
        .ok_or_else(|| bad(format!("missing {what} in line {line:?}")))?
        .parse::<u32>()
        .map_err(|e| bad(format!("bad {what} in line {line:?}: {e}")))
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, generate_weighted, GraphSpec};
    use pgc_primitives::SplitMix64;
    use std::fmt::Debug;
    use std::io::ErrorKind;

    /// The retired per-line splitter, kept as the oracle for
    /// [`scan_blocks`]: one `read_until` copy per line, then `trim_ascii`.
    fn reference_for_each_line(
        mut reader: &[u8],
        mut f: impl FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if reader.read_until(b'\n', &mut buf)? == 0 {
                return Ok(());
            }
            f(buf.trim_ascii())?;
        }
    }

    /// A replayable input read through blocks of at most `cap` bytes, so
    /// that with small caps every line straddles a block boundary.
    struct Blocks<'a> {
        bytes: &'a [u8],
        cap: usize,
    }

    impl<'a> Reopen for Blocks<'a> {
        type Reader = BufReader<&'a [u8]>;

        fn reopen(&self) -> std::io::Result<Self::Reader> {
            Ok(BufReader::with_capacity(self.cap, self.bytes))
        }
    }

    const CAPS: [usize; 5] = [1, 2, 3, 7, 64];

    type Stream<W> = std::io::Result<(Vec<(u32, u32)>, Vec<W>)>;

    /// One replay of `src`, as its pair and weight streams.
    fn collect<W: EdgeWeight>(src: &impl EdgeSource<W>) -> Stream<W> {
        let (mut pairs, mut weights) = (Vec::new(), Vec::new());
        src.replay(&mut |c, w| {
            pairs.extend_from_slice(c);
            weights.extend_from_slice(w);
        })?;
        Ok((pairs, weights))
    }

    /// The reference stream: the per-line parser `line` driven by the
    /// retired splitter.
    fn reference<W: EdgeWeight>(
        bytes: &[u8],
        mut line: impl FnMut(&[u8], &mut EdgeSink<'_, W>) -> std::io::Result<()>,
    ) -> Stream<W> {
        let (mut pairs, mut weights) = (Vec::new(), Vec::new());
        let mut push = |c: &[(u32, u32)], w: &[W]| {
            pairs.extend_from_slice(c);
            weights.extend_from_slice(w);
        };
        let emit: &mut ChunkFn<'_, W> = &mut push;
        let mut sink = EdgeSink::new(emit);
        let result = reference_for_each_line(bytes, |l| line(l, &mut sink));
        drop(sink);
        result.map(|()| (pairs, weights))
    }

    /// Equal values, or errors of equal kind and message.
    fn assert_same<T: PartialEq + Debug>(
        got: &std::io::Result<T>,
        want: &std::io::Result<T>,
        ctx: &dyn Debug,
    ) {
        match (got, want) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{ctx:?}"),
            (Err(a), Err(b)) => {
                assert_eq!(a.kind(), b.kind(), "{ctx:?}");
                assert_eq!(a.to_string(), b.to_string(), "{ctx:?}");
            }
            _ => panic!("{ctx:?}: got {got:?}, reference {want:?}"),
        }
    }

    /// The new reader — one zero-copy block, then every block cap in
    /// [`CAPS`] — against the reference parser, for edge lists.
    fn check_edge_list<W: EdgeWeight>(text: &[u8]) -> Stream<W> {
        let want = reference::<W>(text, edge_list_line);
        assert_same(&collect(&EdgeListSource::new(text)), &want, &lossy(text));
        for cap in CAPS {
            let got = collect(&EdgeListSource::new(Blocks { bytes: text, cap }));
            assert_same(&got, &want, &(cap, lossy(text)));
        }
        want
    }

    /// As [`check_edge_list`], for DIMACS.
    fn check_dimacs(text: &[u8]) -> Stream<()> {
        let src = DimacsSource::new(text)?;
        let want = reference(text, |l, sink| src.line(l, sink));
        assert_same(&collect(&src), &want, &lossy(text));
        for cap in CAPS {
            let src = DimacsSource::new(Blocks { bytes: text, cap }).unwrap();
            assert_same(&collect(&src), &want, &(cap, lossy(text)));
        }
        want
    }

    /// As [`check_edge_list`], for Matrix Market.
    fn check_matrix_market<W: EdgeWeight>(text: &[u8]) -> Stream<W> {
        let src = MatrixMarketSource::new(text)?;
        if !W::IS_UNIT && src.field == MmField::Pattern {
            return collect(&src); // rejected before any line is read
        }
        let mut past = false;
        let want = reference(text, |l, sink| src.line(l, sink, &mut past));
        assert_same(&collect(&src), &want, &lossy(text));
        for cap in CAPS {
            let src = MatrixMarketSource::new(Blocks { bytes: text, cap }).unwrap();
            assert_same(&collect(&src), &want, &(cap, lossy(text)));
        }
        want
    }

    #[test]
    fn block_scanner_matches_reference_parser() {
        let long = format!(
            "0 1{}\n{}2 3\n# {}\n3 4",
            " ".repeat(100),
            "\t".repeat(90),
            "x".repeat(200)
        );
        let long_id = format!("1{} 2\n", "0".repeat(150));
        let edge_lists: &[&[u8]] = &[
            b"",
            b"\n",
            b"0 1\n1 2\n",
            b"0 1\r\n1 2\r\n2 3\r\n",
            b"0\t1\n1\t\t2\t\n2 \t 3 \t\r\n",
            b"0 1\x0c\n\x0c1 2\n2\x0c3\n",
            b"  0 1  \n\t1 2\n \r\n  \n",
            b"0 1 2.5\n1 2 x\n2 3 4 5\n",
            b"0 1\n1 2",
            b"0 1\n1 2 ",
            b"0 1\r",
            b"# comment\n% other\n0 1\n#1 2\n%\n",
            b"1234567890 2\n0000000001 3\n",
            b"4294967295 0\n0 4294967295\r\n",
            b"4294967296 0\n",
            b"0 4294967296\n",
            b"12345678901 0\n",
            b"0 00000000001\n",
            b"1 2\r3 4\n",
            b"1 2\r\r\n",
            b"0 x\n",
            b"17\n",
            b"-1 2\n",
            b"+1 2\n",
            b"0\x0b1\n",
            b"\xff 1\n",
            b"1 2\n\0",
            long.as_bytes(),
            long_id.as_bytes(),
        ];
        for &text in edge_lists {
            let unweighted = check_edge_list::<()>(text);
            let _ = check_edge_list::<f64>(text);
            let _ = check_edge_list::<u32>(text);
            if text == b"0 1 2.5\n1 2 x\n2 3 4 5\n" {
                // Trailing columns are ignored by unweighted reads only.
                assert_eq!(unweighted.unwrap().0, vec![(0, 1), (1, 2), (2, 3)]);
            }
        }
        assert_eq!(
            check_edge_list::<()>(b"4294967295 0\n0 4294967295\r\n")
                .unwrap()
                .0,
            vec![(u32::MAX, 0), (0, u32::MAX)]
        );
        for text in ["4294967296 0\n", "12345678901 0\n", "0 x\n"] {
            let err = check_edge_list::<()>(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{text:?}");
        }

        let long_comment = format!("c {}\np edge 3 2\ne 1 2\ne 2 3\n", "x".repeat(200));
        let dimacs: &[&[u8]] = &[
            b"c sample\r\np edge 5 4\r\ne 1 2\r\ne\t4 5\ne 2 3 \ne 3 4",
            b"p edge 3 2\n\x0ce 1 2\ne 2 3\x0c\n",
            b"p edge 2 1\ne 0 1\n",
            b"p edge 2 1\ne 1 5\n",
            b"p edge 2 1\ne 1\n",
            b"p edge 2 1\nex 1 2\ne 1 x\n",
            b"p edge 4294967295 1\ne 4294967295 1\n",
            long_comment.as_bytes(),
        ];
        for &text in dimacs {
            let _ = check_dimacs(text);
        }
        assert_eq!(
            check_dimacs(dimacs[0]).unwrap().0,
            vec![(0, 1), (3, 4), (1, 2), (2, 3)]
        );

        let mm_long = format!(
            "%%MatrixMarket matrix coordinate pattern general\n%{}\n2 2 1\n1 2\n",
            "x".repeat(200)
        );
        let matrix_market: &[&[u8]] = &[
            b"%%MatrixMarket matrix coordinate pattern symmetric\r\n% c\r\n4 4 3\r\n1 2\r\n2 3\r\n4 4",
            b"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 0.5\n3 1 -2e3\n",
            b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 0.5\n2 1\n",
            b"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2 0.5\n",
            b"%%MatrixMarket matrix coordinate integer general\n3 3 3\n1\t2\t4\n2 1 9 \n\x0c2 3 1",
            b"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
            mm_long.as_bytes(),
        ];
        for &text in matrix_market {
            let _ = check_matrix_market::<()>(text);
            let _ = check_matrix_market::<f64>(text);
        }
        assert_eq!(
            check_matrix_market::<u32>(matrix_market[4]).unwrap(),
            (vec![(0, 1), (1, 0), (1, 2)], vec![4, 9, 1])
        );
    }

    /// One seeded mutation: a byte replaced from an alphabet of the
    /// parsers' interesting bytes, a bit flip, an insertion, a deletion,
    /// or a truncation.
    fn mutate(bytes: &mut Vec<u8>, rng: &mut SplitMix64) {
        const ALPHABET: &[u8] = b"0123456789 \t\r\n\x0c\x0b#%-+.epx\xff";
        let r = rng.next_u64();
        let pos = (r >> 8) as usize % (bytes.len() + 1);
        let byte = ALPHABET[(r >> 40) as usize % ALPHABET.len()];
        match (r % 8, pos < bytes.len()) {
            (0..=2, true) => bytes[pos] = byte,
            (3 | 4, true) => bytes[pos] ^= 1 << ((r >> 32) % 8),
            (5 | 6, _) => bytes.insert(pos, byte),
            (_, true) if r & (1 << 63) != 0 => drop(bytes.remove(pos)),
            _ => bytes.truncate(pos),
        }
    }

    /// Seeded mutations of valid files through all three text readers:
    /// every case is either a graph meeting the `GraphView` contract or
    /// `InvalidData` — never a panic — and every replay equals the
    /// reference parser's. Cases whose ids would size the graph past
    /// `MAX_N` (a mutated digit run can reach `u32::MAX`) still check
    /// the parse but skip the build, whose O(n) arrays would dominate.
    #[test]
    fn mutated_text_inputs_parse_or_fail_cleanly() {
        const CASES: usize = 4000;
        const MAX_N: usize = 1 << 16;
        let g = generate(&GraphSpec::ErdosRenyi { n: 30, m: 60 }, 3);
        let mut edge_list = Vec::new();
        write_edge_list(&g, &mut edge_list).unwrap();
        let mut dimacs = Vec::new();
        write_dimacs_col(&g, &mut dimacs).unwrap();
        let seeds: [(usize, Vec<u8>); 5] = [
            (0, edge_list),
            (0, b"# c\r\n0 1\r\n1\t2\r\n  2 3 9\r\n% x\n3 0".to_vec()),
            (1, dimacs),
            (
                2,
                b"%%MatrixMarket matrix coordinate real general\n% c\n6 6 5\n\
                  1 2 0.5\n2 3 1\n3 1 -2e3\n4 5 7\n6 6 1\n"
                    .to_vec(),
            ),
            (
                2,
                b"%%MatrixMarket matrix coordinate pattern symmetric\r\n5 5 4\r\n\
                  1 2\r\n2 3\r\n3 4\r\n5 1"
                    .to_vec(),
            ),
        ];
        let verdict = |built: std::io::Result<CompactCsr>| match built {
            Ok(g) => g.validate().unwrap(),
            Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}"),
        };
        let needs = |stream: &Stream<()>, declared: usize| match stream {
            Ok((pairs, _)) => pairs
                .iter()
                .map(|&(u, v)| u.max(v) as usize + 1)
                .fold(declared, usize::max),
            Err(_) => 0,
        };
        let mut rng = SplitMix64::new(0x5eed_0013);
        for case in 0..CASES {
            let (format, seed) = &seeds[case % seeds.len()];
            let mut bytes = seed.clone();
            for _ in 0..1 + rng.next_u64() % 3 {
                mutate(&mut bytes, &mut rng);
            }
            let text = &bytes[..];
            match format {
                0 => {
                    let stream = check_edge_list::<()>(text);
                    if needs(&stream, 0) <= MAX_N {
                        verdict(read_edge_list(text));
                    }
                }
                1 => {
                    let declared = DimacsSource::new(text).map_or(0, |s| s.declared_n());
                    if needs(&check_dimacs(text), declared) <= MAX_N {
                        verdict(read_dimacs_col(text));
                    }
                }
                _ => {
                    let declared = MatrixMarketSource::new(text).map_or(0, |s| s.n);
                    if needs(&check_matrix_market::<()>(text), declared) <= MAX_N {
                        verdict(read_matrix_market(text));
                    }
                }
            }
        }
    }

    #[test]
    fn fast_u32_parser_agrees_with_std() {
        for s in ["0", "1", "42", "4294967295", "999999999", "10"] {
            assert_eq!(
                parse_u32_ascii(s.as_bytes()),
                s.parse::<u32>().ok(),
                "{s:?}"
            );
        }
        for s in [
            "",
            "-1",
            "+1",
            "4294967296",
            "99999999999",
            "1 2",
            "x",
            "1.5",
        ] {
            assert_eq!(parse_u32_ascii(s.as_bytes()), None, "{s:?}");
        }
    }

    #[test]
    fn tokenizer_splits_on_any_whitespace() {
        let mut s: &[u8] = b"  12\t34  \r";
        assert_eq!(next_token(&mut s), Some(&b"12"[..]));
        assert_eq!(next_token(&mut s), Some(&b"34"[..]));
        assert_eq!(next_token(&mut s), None);
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 100, m: 300 }, 9);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        // Isolated trailing vertices may shrink n; compare edge sets.
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn weighted_edge_list_roundtrip() {
        let g = generate_weighted::<f64>(&GraphSpec::ErdosRenyi { n: 80, m: 240 }, 4);
        let mut buf = Vec::new();
        write_weighted_edge_list(&g, &mut buf).unwrap();
        let g2 = read_weighted_edge_list::<f64, _>(&buf[..]).unwrap();
        let e1: Vec<_> = g.weighted_edges().collect();
        let e2: Vec<_> = g2.weighted_edges().collect();
        assert_eq!(e1, e2, "weights survive the text round-trip");
    }

    #[test]
    fn weighted_edge_list_requires_third_column() {
        assert!(read_weighted_edge_list::<f32, _>("0 1 2.5\n1 2\n".as_bytes()).is_err());
        assert!(read_weighted_edge_list::<f32, _>("0 1 x\n".as_bytes()).is_err());
        // The same text reads fine unweighted (third column ignored).
        let g = read_edge_list("0 1 2.5\n1 2\n".as_bytes()).unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edge_list_comments_and_blanks() {
        let text = "# comment\n\n% other\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edge_list_bad_input_errors() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("17\n".as_bytes()).is_err());
        assert!(read_edge_list("-1 2\n".as_bytes()).is_err());
        assert!(
            read_edge_list("4294967296 0\n".as_bytes()).is_err(),
            "overflow"
        );
    }

    #[test]
    fn edge_list_empty_input() {
        let g = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.n(), 0);
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = generate(&GraphSpec::Cycle { n: 12 }, 0);
        let mut buf = Vec::new();
        write_dimacs_col(&g, &mut buf).unwrap();
        let g2 = read_dimacs_col(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn dimacs_parses_reference_text() {
        let text = "c sample\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n";
        let g = read_dimacs_col(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
    }

    #[test]
    fn dimacs_declared_isolated_tail_survives() {
        // n=6 declared but ids only reach 3: the declared size wins.
        let text = "p edge 6 2\ne 1 2\ne 2 3\n";
        let g = read_dimacs_col(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 6);
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    fn dimacs_errors() {
        assert!(read_dimacs_col("e 1 2\n".as_bytes()).is_err(), "no header");
        assert!(
            read_dimacs_col("p edge 2 1\ne 0 1\n".as_bytes()).is_err(),
            "0-based id"
        );
        assert!(
            read_dimacs_col("p edge 2 1\ne 1 5\n".as_bytes()).is_err(),
            "out of range"
        );
        assert!(
            read_dimacs_col("p foo 2 1\n".as_bytes()).is_err(),
            "bad problem type"
        );
    }

    #[test]
    fn matrix_market_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % a comment\n\
                    4 4 3\n1 2\n2 3\n4 4\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 2, "self-loop (4,4) dropped");
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn matrix_market_with_values() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    3 3 2\n1 2 0.5\n3 1 -2e3\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 2));
        // The same file read weighted keeps the values.
        let wg = read_weighted_matrix_market::<f64, _>(text.as_bytes()).unwrap();
        assert_eq!(wg.edge_weight(0, 1), Some(0.5));
        assert_eq!(wg.edge_weight(2, 0), Some(-2e3));
        assert_eq!(wg.into_structure(), g);
    }

    #[test]
    fn matrix_market_integer_values_and_duplicate_max() {
        let text = "%%MatrixMarket matrix coordinate integer general\n\
                    3 3 3\n1 2 4\n2 1 9\n2 3 1\n";
        let wg = read_weighted_matrix_market::<u32, _>(text.as_bytes()).unwrap();
        assert_eq!(wg.edge_weight(0, 1), Some(9), "duplicate entry keeps max");
        assert_eq!(wg.edge_weight(1, 2), Some(1));
    }

    #[test]
    fn matrix_market_rejects_complex_and_mismatched_fields() {
        // `complex` is rejected at header parse, even unweighted.
        let complex = "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 0.5 1.5\n";
        assert!(read_matrix_market(complex.as_bytes()).is_err());
        assert!(read_weighted_matrix_market::<f64, _>(complex.as_bytes()).is_err());
        // Declared `real` but a value is missing: InvalidData, not a
        // silently wrong graph.
        let missing = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 0.5\n2 1\n";
        assert!(read_matrix_market(missing.as_bytes()).is_err());
        // Declared `pattern` but values present.
        let extra = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2 0.5\n";
        assert!(read_matrix_market(extra.as_bytes()).is_err());
        // Complex-shaped data under a real header.
        let wide = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 0.5 1.5\n";
        assert!(read_matrix_market(wide.as_bytes()).is_err());
        // Weighted read of a pattern file: no values to read.
        let pattern = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n";
        assert!(read_weighted_matrix_market::<f32, _>(pattern.as_bytes()).is_err());
        assert!(read_matrix_market(pattern.as_bytes()).is_ok());
    }

    #[test]
    fn matrix_market_errors() {
        assert!(
            read_matrix_market("1 1 0\n".as_bytes()).is_err(),
            "no header"
        );
        assert!(
            read_matrix_market("%%MatrixMarket matrix array real\n2 2\n".as_bytes()).is_err(),
            "dense format unsupported"
        );
        assert!(
            read_matrix_market("%%MatrixMarket matrix coordinate pattern\n2 2 1\n0 1\n".as_bytes())
                .is_err(),
            "0-based entry"
        );
        assert!(
            read_matrix_market("%%MatrixMarket matrix coordinate pattern\n2 2 1\n3 1\n".as_bytes())
                .is_err(),
            "out of range"
        );
    }

    #[test]
    fn sources_replay_identically() {
        // The bit-for-bit replay contract the two-pass builder relies on.
        let text = "p edge 5 3\ne 1 2\ne 4 5\ne 2 3\n".as_bytes();
        let src = DimacsSource::new(text).unwrap();
        let mut a: Vec<(u32, u32)> = Vec::new();
        let mut b: Vec<(u32, u32)> = Vec::new();
        src.replay(&mut |c, _| a.extend_from_slice(c)).unwrap();
        src.replay(&mut |c, _| b.extend_from_slice(c)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, vec![(0, 1), (3, 4), (1, 2)]);
        assert_eq!(src.declared_n(), 5);
    }
}
