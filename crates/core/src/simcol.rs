//! **SIM-COL** (Alg. 5): randomized speculative coloring of one low-degree
//! partition, the inner engine of DEC-ADG.
//!
//! Every active vertex draws a color uniformly from its private palette
//! `{0, …, ⌈(1+µ)·deg_ℓ(v)⌉ − 1}`; a draw survives unless an active
//! neighbor drew the same color (both retry — the paper's symmetric rule)
//! or the color is forbidden by the vertex's bitmap `B_v` (taken by a
//! *fixed* neighbor, inside or above the partition). Claim 1 shows each
//! vertex survives a round with probability ≥ 1 − 1/(1+µ), so the loop ends
//! in O(log n) rounds w.h.p. (Lemma 10) and — because palettes never exceed
//! `(1+µ)Δ` — uses at most `⌈(1+µ)Δ⌉` colors.
//!
//! The forbidden bitmaps of *all* vertices live in one shared
//! [`AtomicBitmap`], each vertex owning the bit range
//! `bv_offset[v] .. bv_offset[v] + palette[v]` — this is the paper's
//! "`⌈(1+µ)kd⌉+1` bits per vertex" sizing (§IV-B) realized without
//! per-vertex allocations (bits are only ever set, never cleared).
//!
//! `B_v` is filled **push-style**: a vertex that fixes color `c` inserts
//! `c` into `B_u` of every still-uncolored neighbor `u`. So at any round
//! boundary `B_v` holds exactly the fixed colors of `v`'s neighbors, in its
//! own partition or above — what Alg. 4 lines 16–18 and Alg. 5 part 3 pull
//! in — while each adjacency is walked for it only once over the whole run.
//! Conflict detection and commit share one adjacency scan per round.
//!
//! The engine also hosts the **first-fit** variant (smallest color not in
//! `B_v`, asymmetric conflict resolution) that §IV-C plugs into DEC-ADG to
//! form DEC-ADG-ITR.

use crate::colorer::{Colorer, Instrumentation};
use crate::{Algorithm, ColoringRun, Params, UNCOLORED};
use pgc_graph::GraphView;
use pgc_primitives::bitmap::AtomicBitmap;
use pgc_primitives::rng::uniform_at;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering as AtOrd};

/// [`Colorer`] for standalone SIM-COL (Alg. 5) on the whole graph, with
/// palette headroom `params.simcol_mu`.
pub struct SimCol;

impl<G: GraphView> Colorer<G> for SimCol {
    fn algorithm(&self) -> Algorithm {
        Algorithm::SimCol
    }

    fn color(&self, g: &G, params: &Params) -> ColoringRun {
        let mut instr = Instrumentation::default();
        let (colors, stats) = instr.coloring(|| sim_col(g, params.simcol_mu, params.seed));
        instr.record_rounds(stats.rounds, stats.retries);
        ColoringRun::new(Algorithm::SimCol, colors, instr)
    }
}

/// Shared state for coloring partitions of one graph (any
/// [`GraphView`] representation).
pub struct SimColEngine<'a, G: GraphView> {
    /// The host graph.
    pub g: &'a G,
    /// Fixed (committed) colors; `UNCOLORED` until a vertex is done.
    pub colors: &'a [AtomicU32],
    /// Tentative draws; `UNCOLORED` for every vertex outside the active
    /// set, which is how the conflict scan recognizes *active* neighbors.
    pub tent: &'a [AtomicU32],
    /// Concatenated forbidden-color bitmaps `B_v`.
    pub bv: &'a AtomicBitmap,
    /// `bv_offset[v]` = first bit of `B_v`; length `n + 1`.
    pub bv_offset: &'a [u64],
    /// Palette size (number of candidate colors) per vertex, ≥ 1.
    pub palette: &'a [u32],
    /// RNG seed; draws are `hash(seed, global_round, vertex)`.
    pub seed: u64,
}

/// Round/retry counters from coloring one partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimColStats {
    /// Synchronous rounds executed (the paper's iteration count I).
    pub rounds: u32,
    /// Total re-color attempts (vertices reset by a conflict).
    pub retries: u64,
}

impl<'a, G: GraphView> SimColEngine<'a, G> {
    #[inline]
    fn bv_contains(&self, v: u32, c: u32) -> bool {
        c < self.palette[v as usize]
            && self
                .bv
                .get(self.bv_offset[v as usize] as usize + c as usize)
    }

    /// Record color `c` as forbidden for `v`; colors beyond the palette are
    /// irrelevant (v can never draw them) and dropped, per the §IV-B bitmap
    /// sizing argument.
    #[inline]
    fn bv_insert(&self, v: u32, c: u32) {
        if c < self.palette[v as usize] {
            self.bv
                .set(self.bv_offset[v as usize] as usize + c as usize);
        }
    }

    /// Fix `v`'s color to `c` and push `c` into `B_u` of every uncolored
    /// neighbor `u`.
    fn commit(&self, v: u32, c: u32) {
        self.colors[v as usize].store(c, AtOrd::Relaxed);
        for u in self.g.neighbors(v) {
            if self.colors[u as usize].load(AtOrd::Relaxed) == UNCOLORED {
                self.bv_insert(u, c);
            }
        }
    }

    /// The round loop shared by both draws. `draw(v, round)` picks `v`'s
    /// tentative color; `lost(v, draw)` decides whether it must retry.
    ///
    /// Losses are decided in the same pass that commits the winners. That
    /// is sound because a winner's push cannot flip a same-round loss:
    /// first-fit's rule reads only `tent` and `priority`, and a random-draw
    /// winner has no active neighbor holding its color, so the bit it
    /// pushes is never the one that neighbor's `bv_contains` reads.
    /// Losers keep their `tent` (first-fit resumes from it); only winners
    /// clear theirs, so non-active vertices always read `UNCOLORED`.
    fn run(
        &self,
        members: &[u32],
        draw: impl Fn(u32, u32) -> u32 + Sync,
        lost: impl Fn(u32, u32) -> bool + Sync,
    ) -> SimColStats {
        let mut active: Vec<u32> = members.to_vec();
        let mut stats = SimColStats::default();
        while !active.is_empty() {
            let round = stats.rounds;
            stats.rounds += 1;
            active.par_iter().for_each(|&v| {
                self.tent[v as usize].store(draw(v, round), AtOrd::Relaxed);
            });
            active.par_iter().for_each(|&v| {
                let d = self.tent[v as usize].load(AtOrd::Relaxed);
                if !lost(v, d) {
                    self.commit(v, d);
                }
            });
            let losers: Vec<u32> = active
                .par_iter()
                .copied()
                .filter(|&v| {
                    let won = self.colors[v as usize].load(AtOrd::Relaxed) != UNCOLORED;
                    if won {
                        self.tent[v as usize].store(UNCOLORED, AtOrd::Relaxed);
                    }
                    !won
                })
                .collect();
            stats.retries += losers.len() as u64;
            active = losers;
        }
        stats
    }

    /// Color the vertices of `members` with random draws (Alg. 5).
    ///
    /// `round_base` offsets the RNG stream so successive partitions of a
    /// DEC-ADG run use disjoint randomness. All `members` must currently be
    /// uncolored, with `B_v` holding the colors their neighbors fixed
    /// through this engine.
    pub fn color_partition_random(&self, members: &[u32], round_base: u64) -> SimColStats {
        self.run(
            members,
            // Part 1: every active vertex draws uniformly from its palette.
            |v, round| {
                let round_id = round_base + round as u64;
                uniform_at(self.seed, round_id, v as u64, self.palette[v as usize])
            },
            // Part 2: a draw dies if an active neighbor drew the same color
            // (symmetric — both retry) or if it is forbidden by B_v.
            // Inactive neighbors have tent == UNCOLORED which never equals
            // a draw (draws are < palette ≤ n).
            |v, d| {
                self.bv_contains(v, d)
                    || self
                        .g
                        .neighbors(v)
                        .any(|u| self.tent[u as usize].load(AtOrd::Relaxed) == d)
            },
        )
    }

    /// First-fit variant (§IV-C): draws are the smallest color not in
    /// `B_v`; conflicts are resolved asymmetrically — the higher-`priority`
    /// endpoint commits (pushing its color into the loser's `B_v`) and the
    /// loser retries.
    pub fn color_partition_first_fit(&self, members: &[u32], priority: &[u64]) -> SimColStats {
        self.run(
            members,
            // Part 1: deterministic smallest free color w.r.t. B_v. A loser
            // resumes at its previous draw: B_v only grows, so every bit
            // below it is still set. (Not draw + 1 — the neighbor it lost
            // to may have lost too, leaving that color free.)
            |v, _| {
                let base = self.bv_offset[v as usize] as usize;
                let pal = self.palette[v as usize];
                let mut c = match self.tent[v as usize].load(AtOrd::Relaxed) {
                    UNCOLORED => 0,
                    prev => prev,
                };
                while c < pal && self.bv.get(base + c as usize) {
                    c += 1;
                }
                debug_assert!(c < pal, "palette must contain a free color");
                c
            },
            // Part 2: asymmetric conflicts — priority decides the winner,
            // so progress is guaranteed even though choices are
            // deterministic (the symmetric rule would livelock here).
            |v, d| {
                let pv = priority[v as usize];
                self.g.neighbors(v).any(|u| {
                    self.tent[u as usize].load(AtOrd::Relaxed) == d && priority[u as usize] > pv
                })
            },
        )
    }
}

/// Build the shared per-vertex palette/bitmap layout. `constraint_deg[v]`
/// is the number of neighbors that may ever constrain `v` (full degree for
/// standalone SIM-COL, `deg_ℓ(v)` inside DEC-ADG); `headroom` is the
/// multiplicative slack: palettes are `max(1, ⌈(1+headroom)·deg⌉)`.
pub fn palette_layout(constraint_deg: &[u32], headroom: f64) -> (Vec<u32>, Vec<u64>) {
    let palette: Vec<u32> = constraint_deg
        .iter()
        .map(|&d| (((1.0 + headroom) * d as f64).ceil() as u32).max(1))
        .collect();
    let mut offsets = Vec::with_capacity(palette.len() + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for &p in &palette {
        acc += p as u64;
        offsets.push(acc);
    }
    (palette, offsets)
}

/// Standalone SIM-COL: color an entire graph with `⌈(1+µ)Δ⌉` colors w.h.p.
/// in O(log n) rounds (Lemmas 10–11). Primarily a test vehicle; DEC-ADG
/// calls the engine per partition instead.
pub fn sim_col<G: GraphView>(g: &G, mu: f64, seed: u64) -> (Vec<u32>, SimColStats) {
    assert!(mu > 0.0, "SIM-COL requires mu > 0");
    let n = g.n();
    let deg = g.degree_array();
    let (palette, bv_offset) = palette_layout(&deg, mu);
    let bv = AtomicBitmap::new(*bv_offset.last().unwrap_or(&0) as usize);
    let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let tent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let engine = SimColEngine {
        g,
        colors: &colors,
        tent: &tent,
        bv: &bv,
        bv_offset: &bv_offset,
        palette: &palette,
        seed,
    };
    let members: Vec<u32> = g.vertices().collect();
    let stats = engine.color_partition_random(&members, 0);
    (colors.into_iter().map(|c| c.into_inner()).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_proper, num_colors};
    use pgc_graph::gen::{generate, GraphSpec};

    #[test]
    fn standalone_simcol_is_proper() {
        for (i, spec) in [
            GraphSpec::ErdosRenyi { n: 500, m: 2500 },
            GraphSpec::BarabasiAlbert { n: 500, attach: 6 },
            GraphSpec::RingOfCliques {
                cliques: 12,
                clique_size: 12,
            },
            GraphSpec::Complete { n: 24 },
            GraphSpec::Empty { n: 16 },
        ]
        .iter()
        .enumerate()
        {
            let g = generate(spec, i as u64 + 1);
            let (colors, _) = sim_col(&g, 1.5, 42);
            assert_proper(&g, &colors);
        }
    }

    #[test]
    fn uses_at_most_one_plus_mu_delta_colors() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 800, m: 6400 }, 3);
        let mu = 0.5;
        let (colors, _) = sim_col(&g, mu, 7);
        let bound = ((1.0 + mu) * g.max_degree() as f64).ceil() as u32;
        assert!(num_colors(&colors) <= bound.max(1));
    }

    #[test]
    fn rounds_logarithmic_for_large_mu() {
        // Lemma 10 regime (µ > 1): rounds should be ~log n with a small
        // constant.
        let g = generate(&GraphSpec::ErdosRenyi { n: 4000, m: 20_000 }, 5);
        let (colors, stats) = sim_col(&g, 3.0, 11);
        assert_proper(&g, &colors);
        let log_n = (g.n() as f64).log2();
        assert!(
            (stats.rounds as f64) <= 6.0 * log_n,
            "{} rounds > 6 log n = {:.1}",
            stats.rounds,
            6.0 * log_n
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 400, attach: 5 }, 2);
        let (a, sa) = sim_col(&g, 1.0, 9);
        let (b, sb) = sim_col(&g, 1.0, 9);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = sim_col(&g, 1.0, 10);
        assert_ne!(a, c, "different seeds explore different colorings");
    }

    #[test]
    fn isolated_vertices_one_round() {
        let g = generate(&GraphSpec::Empty { n: 50 }, 0);
        let (colors, stats) = sim_col(&g, 1.0, 0);
        assert!(colors.iter().all(|&c| c == 0), "palette of size 1");
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn palette_layout_shapes() {
        let (pal, off) = palette_layout(&[0, 1, 4], 0.25);
        assert_eq!(pal, vec![1, 2, 5]);
        assert_eq!(off, vec![0, 1, 3, 8]);
    }

    /// The pull-style engine the push-on-commit loop replaced, kept as an
    /// oracle: members absorb their fixed neighbors' colors on entry, each
    /// round filters the losers, commits the rest, clears every draw, and
    /// the losers re-absorb their fixed neighbors before redrawing.
    /// First-fit draws scan `B_v` from 0.
    fn pull_reference<G: GraphView>(
        e: &SimColEngine<'_, G>,
        members: &[u32],
        round_base: u64,
        priority: Option<&[u64]>,
    ) -> SimColStats {
        let absorb = |v: u32| {
            for u in e.g.neighbors(v) {
                let c = e.colors[u as usize].load(AtOrd::Relaxed);
                if c != UNCOLORED {
                    e.bv_insert(v, c);
                }
            }
        };
        let lost = |v: u32| {
            let d = e.tent[v as usize].load(AtOrd::Relaxed);
            let clash = |u: u32| e.tent[u as usize].load(AtOrd::Relaxed) == d;
            match priority {
                Some(p) => {
                    e.g.neighbors(v)
                        .any(|u| clash(u) && p[u as usize] > p[v as usize])
                }
                None => e.bv_contains(v, d) || e.g.neighbors(v).any(clash),
            }
        };
        members.iter().for_each(|&v| absorb(v));
        let mut active = members.to_vec();
        let mut stats = SimColStats::default();
        while !active.is_empty() {
            let round_id = round_base + stats.rounds as u64;
            stats.rounds += 1;
            for &v in &active {
                let d = match priority {
                    Some(_) => (0..).find(|&c| !e.bv_contains(v, c)).unwrap(),
                    None => uniform_at(e.seed, round_id, v as u64, e.palette[v as usize]),
                };
                e.tent[v as usize].store(d, AtOrd::Relaxed);
            }
            let losers: Vec<u32> = active.iter().copied().filter(|&v| lost(v)).collect();
            for &v in &active {
                if !lost(v) {
                    let d = e.tent[v as usize].load(AtOrd::Relaxed);
                    e.colors[v as usize].store(d, AtOrd::Relaxed);
                }
            }
            for &v in &active {
                e.tent[v as usize].store(UNCOLORED, AtOrd::Relaxed);
            }
            losers.iter().for_each(|&v| absorb(v));
            stats.retries += losers.len() as u64;
            active = losers;
        }
        stats
    }

    /// Color `groups` in sequence (like DEC-ADG's partitions) on a fresh
    /// engine, with the push-on-commit engine or the pull reference.
    fn color_groups<G: GraphView>(
        g: &G,
        palette: &[u32],
        groups: &[Vec<u32>],
        priority: Option<&[u64]>,
        reference: bool,
    ) -> (Vec<u32>, SimColStats) {
        let n = g.n();
        let mut bv_offset = vec![0u64];
        for &p in palette {
            bv_offset.push(bv_offset.last().unwrap() + p as u64);
        }
        let bv = AtomicBitmap::new(*bv_offset.last().unwrap() as usize);
        let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
        let tent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
        let engine = SimColEngine {
            g,
            colors: &colors,
            tent: &tent,
            bv: &bv,
            bv_offset: &bv_offset,
            palette,
            seed: 0xFACE,
        };
        let mut total = SimColStats::default();
        for members in groups {
            let round_base = total.rounds as u64;
            let stats = match (reference, priority) {
                (true, _) => pull_reference(&engine, members, round_base, priority),
                (false, Some(p)) => engine.color_partition_first_fit(members, p),
                (false, None) => engine.color_partition_random(members, round_base),
            };
            total.rounds += stats.rounds;
            total.retries += stats.retries;
        }
        (colors.into_iter().map(|c| c.into_inner()).collect(), total)
    }

    #[test]
    fn push_on_commit_matches_pull_reference() {
        // Pushing fixed colors into B_u on commit, fusing loss detection
        // with the commit, and resuming first-fit at the previous draw must
        // reproduce the pull-style engine bit for bit — same colors, rounds
        // and retries — for both draws, over multi-partition runs.
        use pgc_primitives::random_permutation;
        let specs = [
            GraphSpec::ErdosRenyi { n: 400, m: 2400 },
            GraphSpec::BarabasiAlbert { n: 400, attach: 6 },
            GraphSpec::RingOfCliques {
                cliques: 10,
                clique_size: 12,
            },
            GraphSpec::Complete { n: 30 },
        ];
        for (i, spec) in specs.iter().enumerate() {
            for seed in 0..3u64 {
                let g = generate(spec, 10 * i as u64 + seed);
                let n = g.n();
                let deg = g.degree_array();
                let k = 1 + seed as usize;
                let perm = random_permutation(n, seed ^ 0x5EED);
                let groups: Vec<Vec<u32>> = (0..k)
                    .map(|r| {
                        (0..n as u32)
                            .filter(|&v| perm[v as usize] as usize % k == r)
                            .collect()
                    })
                    .collect();
                let priority: Vec<u64> = random_permutation(n, seed + 77)
                    .into_iter()
                    .map(u64::from)
                    .collect();
                let (random_pal, _) = palette_layout(&deg, 0.3 + 0.4 * seed as f64);
                let first_fit_pal: Vec<u32> = deg.iter().map(|&d| d + 1).collect();
                for (pal, prio) in [(&random_pal, None), (&first_fit_pal, Some(&priority[..]))] {
                    let push = color_groups(&g, pal, &groups, prio, false);
                    let pull = color_groups(&g, pal, &groups, prio, true);
                    assert_eq!(
                        push,
                        pull,
                        "{spec:?} seed {seed} first_fit={}",
                        prio.is_some()
                    );
                    assert_proper(&g, &push.0);
                }
            }
        }
    }

    #[test]
    fn first_fit_resumes_at_previous_draw() {
        // Path 0-1-2 with priorities 2 > 1 > 0: round 1 all draw 0, vertex
        // 2 wins and 1 loses to it, while 0 loses to 1 — which itself
        // lost. Color 0 is then still free for vertex 0, so resuming at
        // draw + 1 would wrongly skip it.
        let g = generate(&GraphSpec::Path { n: 3 }, 0);
        let priority = [0u64, 1, 2];
        let palette = [3u32; 3];
        let groups = [vec![0, 1, 2]];
        let push = color_groups(&g, &palette, &groups, Some(&priority), false);
        let pull = color_groups(&g, &palette, &groups, Some(&priority), true);
        assert_eq!(push.0, vec![0, 1, 0]);
        assert_eq!(push, pull);
        assert_eq!(push.1.retries, 2);
    }

    #[test]
    fn dense_graph_causes_retries() {
        let g = generate(&GraphSpec::Complete { n: 40 }, 0);
        let (colors, stats) = sim_col(&g, 0.5, 13);
        assert_proper(&g, &colors);
        assert!(stats.retries > 0, "K_40 with tight palettes must conflict");
    }
}
