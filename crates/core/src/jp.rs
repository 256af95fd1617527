//! The Jones–Plassmann engine (Alg. 3).
//!
//! Given a total priority function ρ, JP directs every edge from the higher-
//! to the lower-priority endpoint, forming the DAG `Gρ`; a vertex is colored
//! with the smallest color unused among its predecessors as soon as *all*
//! predecessors are done (`Join` on an atomic counter, §II-D). Depth is
//! `O(log n + log Δ · |P|)` where `|P|` is the longest path of `Gρ`
//! (Hasenplaugh et al.) — the whole point of the paper's ADG ordering is to
//! bound `|P|` by `O(d log n + …)` (Lemma 7).
//!
//! Each vertex's color is a function of its predecessors' colors only, so
//! for a fixed ρ JP's output *equals* sequential greedy coloring in
//! descending-ρ order ([`crate::greedy::greedy_by_priority`]) on every
//! schedule. Two engines compute it:
//!
//! * [`jp_color_in_order`] — the ordered sweep, behind the [`Jp`] colorer.
//!   It walks the vertices in descending ρ through a window of pending
//!   vertices, colored in parallel; one adjacency scan per attempt counts
//!   the colored neighbors against the vertex's predecessor count and, once
//!   they match, commits the first free color. Unready vertices stay in the
//!   window, in order. This is Blelloch, Fineman and Shun's prefix scheme
//!   ("Greedy sequential maximal independent set and matching are parallel
//!   on average", SPAA 2012): no atomic read-modify-write, no per-vertex
//!   task, and at width 1 exactly one greedy pass.
//! * [`jp_color_levels_sharded`] — level-synchronous: colors the current
//!   frontier, then the released set, round by round, with each round
//!   grouped by the shard of a vertex-range partition.
//!   [`jp_color_levels`] is this engine with a single shard. Returns the
//!   round count, which equals the number of vertices on the longest `Gρ`
//!   path — the measured "depth" used by the Table III experiment.
//!
//! Both engines color a ready vertex with the same one-scan kernel, and both
//! produce bit-identical colorings on any thread interleaving.

use crate::colorer::{Colorer, Instrumentation};
use crate::schedule::{degree_class, prefetch_dist};
use crate::{Algorithm, ColoringRun, Params, UNCOLORED};
use pgc_graph::GraphView;
use pgc_primitives::{FixedBitmap, JoinCounters};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU32, Ordering as AtOrd};

/// Pending vertices per parallel strand in one sweep round. Past width 1
/// a round's later chunks may wait on predecessors that earlier chunks
/// color in the same round; a window of a few thousand per strand keeps
/// those retries a small share of the scans. At width 1 the window is the
/// whole sequence: every vertex is ready when its turn comes.
const WINDOW_PER_STRAND: usize = 1 << 11;

/// [`Colorer`] for the Jones–Plassmann family: any `Algorithm` whose
/// [`ordering_kind`](Algorithm::ordering_kind) yields the JP priority
/// function (JP-FF/R/LF/LLF/SL/SLL/ASL/ADG/ADG-M).
pub struct Jp {
    algo: Algorithm,
}

impl Jp {
    pub fn new(algo: Algorithm) -> Self {
        use Algorithm::*;
        assert!(
            matches!(
                algo,
                JpFf | JpR | JpLf | JpLlf | JpSl | JpSll | JpAsl | JpAdg | JpAdgM
            ),
            "not a JP algorithm: {algo:?}"
        );
        Self { algo }
    }
}

impl<G: GraphView> Colorer<G> for Jp {
    fn algorithm(&self) -> Algorithm {
        self.algo
    }

    fn color(&self, g: &G, params: &Params) -> ColoringRun {
        let kind = self
            .algo
            .ordering_kind(params)
            .expect("JP algorithms have an ordering");
        let mut instr = Instrumentation::default();
        let ord = instr.ordering(|| pgc_order::compute(g, &kind, params.seed));
        let iterations = ord.stats.iterations;
        let colors = instr.coloring(|| {
            // §V-C: the ordering may have fused JP's Part-1 DAG construction.
            let counts = ord
                .pred_counts
                .unwrap_or_else(|| predecessor_counts(g, &ord.rho));
            let seq = descending_sequence(ord.levels.map(|l| l.seq), &ord.rho);
            jp_color_in_order(g, &seq, &counts)
        });
        // The sweep's round count depends on the schedule; JP records none,
        // so a run's instrumentation is the same at every width.
        instr.record_rounds(iterations, 0);
        ColoringRun::new(self.algo, colors, instr)
    }
}

/// The vertices in descending ρ. A batched ordering's removal sequence,
/// reversed, already is that order whenever ρ strictly decreases along it
/// (ADG with sorted batches) — an O(n) check; otherwise sort.
fn descending_sequence(removal: Option<Vec<u32>>, rho: &[u64]) -> Vec<u32> {
    if let Some(mut seq) = removal {
        seq.reverse();
        let descends = (1..seq.len())
            .into_par_iter()
            .all(|i| rho[seq[i - 1] as usize] > rho[seq[i] as usize]);
        if descends {
            return seq;
        }
    }
    by_descending_priority(rho)
}

/// All vertices sorted by descending ρ.
fn by_descending_priority(rho: &[u64]) -> Vec<u32> {
    let mut seq: Vec<u32> = (0..rho.len() as u32).collect();
    seq.par_sort_unstable_by_key(|&v| Reverse(rho[v as usize]));
    seq
}

/// Number of predecessors (higher-priority neighbors) per vertex — the
/// initial `count[]` of Alg. 3 (line 11).
pub fn predecessor_counts<G: GraphView>(g: &G, rho: &[u64]) -> Vec<u32> {
    g.vertices()
        .into_par_iter()
        .map(|v| {
            g.neighbors(v)
                .filter(|&u| rho[u as usize] > rho[v as usize])
                .count() as u32
        })
        .collect()
}

/// The DAG's sources: vertices with no predecessor, ascending.
fn sources(counts: &[u32]) -> Vec<u32> {
    (0..counts.len() as u32)
        .into_par_iter()
        .filter(|&v| counts[v as usize] == 0)
        .collect()
}

/// The release step of the level loops: join the counter of every
/// lower-priority neighbor of the finished `level` and return those whose
/// last predecessor this was, each as `slot(u)`. Level slots carry the
/// vertex id in their low 32 bits.
fn release_level<G: GraphView>(
    g: &G,
    rho: &[u64],
    counters: &JoinCounters,
    level: &[u64],
    slot: impl Fn(u32) -> u64 + Sync,
) -> Vec<u64> {
    level
        .par_iter()
        .flat_map_iter(|&k| {
            let v = k as u32;
            let rv = rho[v as usize];
            g.neighbors(v)
                .filter(move |&u| rho[u as usize] < rv && counters.join(u as usize))
                .map(&slot)
        })
        .collect()
}

/// `GetColor` (Alg. 3 lines 25–28) in one adjacency scan: count the colored
/// neighbors of `v` and mark their colors in `scratch`. Only predecessors
/// can be colored before `v`, so once the count reaches `pred` (the number
/// of predecessors) every predecessor color is final, and the smallest
/// unmarked color is `v`'s. `None` while some predecessor is uncolored.
///
/// The answer is at most `pred`, so colors above it are dropped; the
/// scratch holds `pred + 1` bits and only their words are cleared.
#[inline]
fn first_free_color<G: GraphView>(
    g: &G,
    colors: &[AtomicU32],
    v: u32,
    pred: u32,
    scratch: &mut FixedBitmap,
) -> Option<u32> {
    let cap = pred as usize + 1;
    scratch.ensure_len(cap);
    let mut colored = 0u32;
    for u in g.neighbors(v) {
        let c = colors[u as usize].load(AtOrd::Relaxed);
        if c != UNCOLORED {
            colored += 1;
            if (c as usize) < cap {
                scratch.set(c as usize);
            }
        }
    }
    let free = (colored == pred).then(|| scratch.first_zero_from(0) as u32);
    scratch.clear_prefix(cap);
    free
}

/// JP as one ordered sweep over `seq`, the vertices in descending ρ, with
/// `pred[v]` = the number of predecessors of `v` in `Gρ`. Returns the
/// coloring.
///
/// Each round colors a window of pending vertices, in `seq` order, in
/// parallel; a vertex whose predecessors are not all colored yet stays
/// pending, in order, and the window refills from `seq`. All vertices
/// before the first pending one are colored, so that vertex is always
/// ready and every round makes progress; bad counts that would stall the
/// sweep panic instead. A window holding all of `seq` colors every vertex
/// at depth `r` of `Gρ` by round `r`, which is Hasenplaugh et al.'s `|P|`
/// bound on the rounds.
pub fn jp_color_in_order<G: GraphView>(g: &G, seq: &[u32], pred: &[u32]) -> Vec<u32> {
    assert_eq!(seq.len(), g.n(), "seq must list every vertex once");
    assert_eq!(pred.len(), g.n());
    let colors: Vec<AtomicU32> = (0..g.n()).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let width = rayon::current_num_threads();
    let cap = if width <= 1 {
        seq.len()
    } else {
        WINDOW_PER_STRAND * width
    };
    let dist = prefetch_dist(g);
    let mut window: Vec<u32> = Vec::with_capacity(cap.min(seq.len()));
    let mut next = 0usize;
    loop {
        let take = (cap - window.len()).min(seq.len() - next);
        window.extend_from_slice(&seq[next..next + take]);
        next += take;
        let Some(&first) = window.first() else { break };
        let _round = pgc_obs::span!("jp.round");
        let slots = &window[..];
        (0..slots.len()).into_par_iter().for_each_init(
            || FixedBitmap::new(0),
            |scratch, i| {
                if let Some(&ahead) = slots.get(i + dist) {
                    g.prefetch_neighbors(ahead);
                }
                let v = slots[i];
                if let Some(c) = first_free_color(g, &colors, v, pred[v as usize], scratch) {
                    colors[v as usize].store(c, AtOrd::Relaxed);
                }
            },
        );
        assert_ne!(
            colors[first as usize].load(AtOrd::Relaxed),
            UNCOLORED,
            "vertex {first} is first in line but not ready: bad predecessor counts"
        );
        window.retain(|&v| colors[v as usize].load(AtOrd::Relaxed) == UNCOLORED);
    }
    colors.into_iter().map(|c| c.into_inner()).collect()
}

/// JP over an arbitrary total priority ρ: [`jp_color_with_counts`] with
/// the predecessor counts computed here.
pub fn jp_color<G: GraphView>(g: &G, rho: &[u64]) -> Vec<u32> {
    let counts = predecessor_counts(g, rho);
    jp_color_with_counts(g, rho, &counts)
}

/// [`jp_color`] with precomputed predecessor counts — the §V-C fused-rank
/// fast path: ADG already produced `count[v]` during its UPDATE pass, so
/// JP's Part 1 (Alg. 3 lines 6–11) is skipped. Sorts the vertices by ρ and
/// runs [`jp_color_in_order`].
pub fn jp_color_with_counts<G: GraphView>(g: &G, rho: &[u64], counts: &[u32]) -> Vec<u32> {
    assert_eq!(rho.len(), g.n());
    debug_assert_eq!(counts, &predecessor_counts(g, rho)[..], "bad fused counts");
    jp_color_in_order(g, &by_descending_priority(rho), counts)
}

/// Level-synchronous JP. Returns `(colors, rounds)`; `rounds` equals the
/// number of levels of `Gρ`, i.e. the number of vertices on its longest
/// directed path — the quantity bounded by Lemma 7 for
/// ρ = ⟨ρ_ADG, ρ_R⟩. This is [`jp_color_levels_sharded`] with one shard.
pub fn jp_color_levels<G: GraphView>(g: &G, rho: &[u64]) -> (Vec<u32>, u32) {
    jp_color_levels_sharded(g, rho, &[0, g.n() as u32])
}

/// The schedule key of `v` in a level round: (shard, degree class, id)
/// packed into one integer, so sorting a round's keys once lays it out as
/// contiguous shard slices, each in [`crate::schedule`]'s degree-bucketed
/// order. With one shard this is `bucket_by_degree`'s key. The shard gets
/// the top 26 bits; past 2²⁶ shards its high bits drop, which only
/// reorders the round, since keys order the schedule, never the colors.
#[inline]
fn round_key<G: GraphView>(g: &G, bounds: &[u32], v: u32) -> u64 {
    let shard = bounds[1..].partition_point(|&b| b <= v) as u64;
    (shard << 38) | ((degree_class(g.degree(v)) as u64) << 32) | v as u64
}

/// Shard-parallel level-synchronous JP over a vertex-range sharding
/// (`bounds` as produced by `pgc_graph::ShardedCsr::boundaries`). Each
/// round is sorted once by (shard, degree class, id) — keys computed once
/// per vertex, when it is released — and colored in one parallel loop
/// with adjacency prefetch ([`crate::schedule`]), so every shard is a
/// contiguous, degree-bucketed slice of the round. A round's frontier is
/// an independent set of `Gρ`, so no vertex reads another's in-round
/// color; the fork–join barrier at the end of the round is the halo color
/// exchange — after it, every cross-shard (halo) arc sees its endpoint's
/// committed color, and the release scan runs on globally consistent
/// state. Works on *any* [`GraphView`] (the bounds need not match the
/// representation's physical layout), and the coloring is independent of
/// `bounds` because each vertex's color is a function of earlier-round
/// colors only.
pub fn jp_color_levels_sharded<G: GraphView>(
    g: &G,
    rho: &[u64],
    bounds: &[u32],
) -> (Vec<u32>, u32) {
    assert_eq!(rho.len(), g.n());
    assert!(
        bounds.len() >= 2 && bounds[0] == 0 && *bounds.last().unwrap() as usize == g.n(),
        "shard bounds must cover 0..n"
    );
    let counts = predecessor_counts(g, rho);
    let counters = JoinCounters::from_values(&counts);
    let colors: Vec<AtomicU32> = (0..g.n()).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let key = |v: u32| round_key(g, bounds, v);
    let mut round: Vec<u64> = sources(&counts).par_iter().map(|&v| key(v)).collect();
    let dist = prefetch_dist(g);
    let mut rounds = 0u32;
    while !round.is_empty() {
        rounds += 1;
        let _round = pgc_obs::span!("jp.round");
        round.par_sort_unstable();
        let slots = &round[..];
        (0..slots.len()).into_par_iter().for_each_init(
            || FixedBitmap::new(0),
            |scratch, i| {
                if let Some(&ahead) = slots.get(i + dist) {
                    g.prefetch_neighbors(ahead as u32);
                }
                let v = slots[i] as u32;
                let c = first_free_color(g, &colors, v, counts[v as usize], scratch)
                    .expect("a level-round vertex has all its predecessors colored");
                colors[v as usize].store(c, AtOrd::Relaxed);
            },
        );
        // Implicit barrier above = halo color exchange; release the next
        // level against fully committed colors.
        round = release_level(g, rho, &counters, slots, key);
    }
    (colors.into_iter().map(|c| c.into_inner()).collect(), rounds)
}

/// Length (in vertices) of the longest directed path in `Gρ` — the `|P|`
/// of the paper's depth bounds. Computed as the number of peeling levels of
/// the DAG (identical to [`jp_color_levels`]'s round count but without
/// doing the coloring work).
pub fn dag_longest_path<G: GraphView>(g: &G, rho: &[u64]) -> u32 {
    let counts = predecessor_counts(g, rho);
    let counters = JoinCounters::from_values(&counts);
    let mut level: Vec<u64> = sources(&counts).into_iter().map(u64::from).collect();
    let mut levels = 0u32;
    while !level.is_empty() {
        levels += 1;
        level = release_level(g, rho, &counters, &level, u64::from);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_proper, num_colors};
    use pgc_graph::builder::from_edges;
    use pgc_graph::gen::{generate, GraphSpec};
    use pgc_graph::CompactCsr;
    use pgc_order::{compute, OrderingKind};
    use pgc_primitives::random_permutation;

    fn random_rho(n: usize, seed: u64) -> Vec<u64> {
        random_permutation(n, seed)
            .into_iter()
            .map(|p| p as u64)
            .collect()
    }

    #[test]
    fn colors_are_proper_on_random_graphs() {
        for seed in 0..4 {
            let g = generate(&GraphSpec::ErdosRenyi { n: 500, m: 2500 }, seed);
            let rho = random_rho(g.n(), seed);
            let colors = jp_color(&g, &rho);
            assert_proper(&g, &colors);
        }
    }

    #[test]
    fn async_and_level_sync_agree() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            2,
        );
        let rho = random_rho(g.n(), 5);
        let a = jp_color(&g, &rho);
        let (b, rounds) = jp_color_levels(&g, &rho);
        assert_eq!(a, b);
        assert!(rounds > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 1000, attach: 8 }, 3);
        let rho = random_rho(g.n(), 11);
        let a = jp_color(&g, &rho);
        for _ in 0..3 {
            assert_eq!(jp_color(&g, &rho), a, "JP must be schedule-deterministic");
        }
    }

    #[test]
    fn respects_priority_semantics() {
        // Path 0-1-2 with rho = [3,2,1]: 0 colored first (color 0), then 1
        // (sees 0 ⇒ color 1), then 2 (sees 1 ⇒ color 0).
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let colors = jp_color(&g, &[3, 2, 1]);
        assert_eq!(colors, vec![0, 1, 0]);
    }

    #[test]
    fn delta_plus_one_always_holds() {
        let g = generate(
            &GraphSpec::RingOfCliques {
                cliques: 10,
                clique_size: 8,
            },
            1,
        );
        let rho = random_rho(g.n(), 7);
        let colors = jp_color(&g, &rho);
        assert!(num_colors(&colors) <= g.max_degree() + 1);
    }

    #[test]
    fn sharded_levels_bit_identical_to_monolithic() {
        let g = generate(
            &GraphSpec::Rmat {
                scale: 8,
                edge_factor: 8,
            },
            6,
        );
        let rho = random_rho(g.n(), 9);
        let (mono, mono_rounds) = jp_color_levels(&g, &rho);
        let n = g.n() as u32;
        for bounds in [
            vec![0, n],
            vec![0, n / 2, n],
            vec![0, n / 4, n / 2, 3 * n / 4, n],
            vec![0, 1, n / 3, n], // deliberately lopsided
        ] {
            let (sharded, rounds) = jp_color_levels_sharded(&g, &rho, &bounds);
            assert_eq!(sharded, mono, "bounds {bounds:?}");
            assert_eq!(rounds, mono_rounds);
        }
    }

    #[test]
    fn longest_path_matches_round_count() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 400, m: 1600 }, 9);
        let rho = random_rho(g.n(), 1);
        let (_, rounds) = jp_color_levels(&g, &rho);
        assert_eq!(dag_longest_path(&g, &rho), rounds);
    }

    #[test]
    fn ff_on_path_is_two_levels_deep_per_vertex() {
        // With FF priorities a path is a single chain: n rounds.
        let g = generate(&GraphSpec::Path { n: 64 }, 0);
        let ord = compute(&g, &OrderingKind::FirstFit, 0);
        assert_eq!(dag_longest_path(&g, &ord.rho), 64);
    }

    #[test]
    fn sl_ordering_gives_d_plus_one() {
        let g = generate(&GraphSpec::BarabasiAlbert { n: 800, attach: 5 }, 4);
        let d = pgc_graph::degeneracy::degeneracy(&g).degeneracy;
        let ord = compute(&g, &OrderingKind::SmallestLast, 2);
        let colors = jp_color(&g, &ord.rho);
        assert_proper(&g, &colors);
        assert!(num_colors(&colors) <= d + 1);
    }

    #[test]
    fn pred_counts_sum_to_m() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 300, m: 900 }, 5);
        let rho = random_rho(g.n(), 3);
        let counts = predecessor_counts(&g, &rho);
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total, g.m() as u64, "each edge has exactly one direction");
    }

    #[test]
    fn sweep_equals_greedy_across_window_refills() {
        // n well above the window at width 2 and 4, so rounds retain
        // blocked vertices and refill behind them.
        let g = generate(
            &GraphSpec::BarabasiAlbert {
                n: 30_000,
                attach: 6,
            },
            8,
        );
        let rho = random_rho(g.n(), 4);
        let oracle = crate::greedy::greedy_by_priority(&g, &rho);
        for t in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap();
            assert_eq!(pool.install(|| jp_color(&g, &rho)), oracle, "width {t}");
        }
    }

    #[test]
    #[should_panic(expected = "bad predecessor counts")]
    fn sweep_rejects_counts_that_would_stall() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        // Vertex 1 has one predecessor, not two: it would never be ready.
        jp_color_in_order(&g, &[0, 1, 2], &[0, 2, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = CompactCsr::empty(0);
        assert!(jp_color(&g, &[]).is_empty());
        let (c, r) = jp_color_levels(&g, &[]);
        assert!(c.is_empty());
        assert_eq!(r, 0);
    }

    #[test]
    fn isolated_vertices_all_get_color_zero() {
        let g = CompactCsr::empty(10);
        let rho = random_rho(10, 1);
        let colors = jp_color(&g, &rho);
        assert!(colors.iter().all(|&c| c == 0));
    }
}
