//! The three seeded workloads: how each graph is generated, which file
//! format the program under test reads it from, and the loader that opens
//! that file.

use pgc_graph::gen::{generate, GraphSpec};
use pgc_graph::CompactCsr;
use std::io::{BufWriter, Write};
use std::path::Path;

/// On-disk format of a workload's input file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Raw-array `.pgcs` snapshot, read with `load_snapshot` into `CompactCsr`.
    SnapshotV1,
    /// Compressed `.pgcs` snapshot, opened zero-copy with
    /// `load_compressed_snapshot` into `CompressedCsr`.
    SnapshotV2,
    /// Whitespace edge list, read with `read_edge_list_path` (two-pass build).
    Text,
}

impl Format {
    pub fn file_name(self) -> &'static str {
        match self {
            Format::SnapshotV1 => "input-v1.pgcs",
            Format::SnapshotV2 => "input-v2.pgcs",
            Format::Text => "input.txt",
        }
    }

    /// Write `g` in this format.
    pub fn write(self, g: &CompactCsr, path: &Path) -> std::io::Result<()> {
        match self {
            Format::SnapshotV1 => pgc_graph::write_snapshot(g, path).map(drop),
            Format::SnapshotV2 => pgc_graph::write_snapshot_compressed(g, path).map(drop),
            Format::Text => {
                let mut w = BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
                pgc_graph::io::write_edge_list(g, &mut w)?;
                w.flush()
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Social-network baseline on the cheapest load path: no text parsing,
    /// no varint decoding, little conflict repair.
    BaSnap,
    /// Skewed hyperlink-like graph behind the varint decoder, with many
    /// ADG peel iterations.
    RmatV2,
    /// Text ingestion plus the conflict-heavy dense-cluster regime; ADG is
    /// a small share here.
    CliquesText,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BaSnap, Workload::RmatV2, Workload::CliquesText];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BaSnap => "ba-snap",
            Workload::RmatV2 => "rmat-v2",
            Workload::CliquesText => "cliques-text",
        }
    }

    pub fn format(self) -> Format {
        match self {
            Workload::BaSnap => Format::SnapshotV1,
            Workload::RmatV2 => Format::SnapshotV2,
            Workload::CliquesText => Format::Text,
        }
    }

    /// The generator recipe; `tiny` is the self-test size. The full sizes
    /// keep a pass of the four timed pipelines to 1.5–3.5 s on a 2-core
    /// machine, so each end-to-end median has ten or more samples per run.
    pub fn spec(self, tiny: bool) -> GraphSpec {
        match (self, tiny) {
            (Workload::BaSnap, false) => GraphSpec::BarabasiAlbert {
                n: 200_000,
                attach: 16,
            },
            (Workload::BaSnap, true) => GraphSpec::BarabasiAlbert { n: 4000, attach: 8 },
            (Workload::RmatV2, false) => GraphSpec::Rmat {
                scale: 17,
                edge_factor: 16,
            },
            (Workload::RmatV2, true) => GraphSpec::Rmat {
                scale: 11,
                edge_factor: 8,
            },
            (Workload::CliquesText, false) => GraphSpec::RingOfCliques {
                cliques: 2000,
                clique_size: 48,
            },
            (Workload::CliquesText, true) => GraphSpec::RingOfCliques {
                cliques: 40,
                clique_size: 12,
            },
        }
    }

    /// The workload graph for `seed`. The ring of cliques has no random
    /// structure, so the seed rotates its vertex ids instead: cliques stay
    /// contiguous id ranges, but where the ring wraps and how ids tie-break
    /// change with the seed.
    pub fn graph(self, seed: u64, tiny: bool) -> CompactCsr {
        let spec = self.spec(tiny);
        match self {
            Workload::CliquesText => {
                let g = generate(&spec, 0);
                let n = g.n() as u64;
                let shift = pgc_primitives::hash_mix(seed) % n;
                let perm: Vec<u32> = (0..n).map(|v| ((v + shift) % n) as u32).collect();
                pgc_graph::transform::relabel(&g, &perm)
            }
            _ => generate(&spec, seed),
        }
    }
}
