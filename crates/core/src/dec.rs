//! **DEC-ADG** (Alg. 4, contribution #3) and **DEC-ADG-ITR** (§IV-C,
//! contribution #4).
//!
//! DEC-ADG abandons the JP scheduling skeleton entirely: ADG decomposes the
//! graph into ρ̄ ∈ O(log n) *low-degree partitions* (each vertex has at most
//! `k·d` neighbors in its own or higher partitions, `k = 2(1+ε/12)`), and
//! each partition is colored independently by SIM-COL, top partition first.
//! Forbidden-color bitmaps `B_v` carry the colors already committed by
//! higher partitions, so partitions never need re-coloring across levels —
//! conflicts only happen (and are retried) *inside* a partition, whose
//! degree is bounded. That is what turns speculative coloring's unbounded
//! `O(Δ·I)` behaviour into `O(log d log² n)` depth, `O(n+m)` work, and a
//! `(2+ε)d` color guarantee (Lemma 12 + Claim 2, for 4 < ε ≤ 8; quality
//! alone holds for all 0 < ε ≤ 8).
//!
//! DEC-ADG-ITR keeps the decomposition but swaps SIM-COL's random draw for
//! ITR's deterministic first-fit draw — the §IV-C recipe showing ADG can
//! upgrade an existing speculative heuristic (\[40\]) to a
//! `2(1+ε)d + 1` quality guarantee while staying fast in practice.

use crate::colorer::{Colorer, Instrumentation};
use crate::simcol::{palette_layout, SimColEngine};
use crate::{Algorithm, ColoringRun, Params, UNCOLORED};
use pgc_graph::GraphView;
use pgc_order::adg::{adg, AdgOptions};
use pgc_order::ThresholdRule;
use pgc_primitives::bitmap::AtomicBitmap;
use pgc_primitives::random_permutation;
use rayon::prelude::*;
use std::sync::atomic::AtomicU32;

/// [`Colorer`] for the decomposition contributions: DEC-ADG, DEC-ADG-M,
/// and DEC-ADG-ITR.
pub struct Dec {
    algo: Algorithm,
}

impl Dec {
    pub fn new(algo: Algorithm) -> Self {
        use Algorithm::*;
        assert!(
            matches!(algo, DecAdg | DecAdgM | DecAdgItr),
            "not a DEC-ADG algorithm: {algo:?}"
        );
        Self { algo }
    }
}

impl<G: GraphView> Colorer<G> for Dec {
    fn algorithm(&self) -> Algorithm {
        self.algo
    }

    fn color(&self, g: &G, params: &Params) -> ColoringRun {
        match self.algo {
            Algorithm::DecAdg => dec_adg(g, self.algo, ThresholdRule::Average, params),
            Algorithm::DecAdgM => dec_adg(g, self.algo, ThresholdRule::Median, params),
            Algorithm::DecAdgItr => dec_adg_itr(g, params),
            _ => unreachable!("checked in Dec::new"),
        }
    }
}

/// `deg_ℓ(v)` (§IV-B): the number of neighbors of `v` in its own or any
/// higher partition — the only neighbors that can ever constrain `v`'s
/// color. Bounded by `k·d` because the ranks form a partial k-approximate
/// degeneracy ordering.
pub fn constraint_degrees<G: GraphView>(g: &G, rank: &[u32]) -> Vec<u32> {
    g.vertices()
        .into_par_iter()
        .map(|v| {
            let rv = rank[v as usize];
            g.neighbors(v).filter(|&u| rank[u as usize] >= rv).count() as u32
        })
        .collect()
}

fn adg_options_for(params: &Params, rule: ThresholdRule, epsilon: f64) -> AdgOptions {
    AdgOptions {
        epsilon,
        rule,
        sort_batches: params.adg_sort_batches,
        sort_algo: params.adg_sort,
        update: params.adg_update,
        cache_degree_sum: true,
        fuse_rank: true,
        seed: params.seed,
    }
}

/// DEC-ADG / DEC-ADG-M. `rule` selects the average-degree (ε/12-accurate)
/// or median ADG variant; `params.dec_epsilon` is the ε of Alg. 4.
pub fn dec_adg<G: GraphView>(
    g: &G,
    algo: Algorithm,
    rule: ThresholdRule,
    params: &Params,
) -> ColoringRun {
    let eps = params.dec_epsilon;
    assert!(
        eps > 0.0 && eps <= 8.0,
        "DEC-ADG requires 0 < ε ≤ 8 (Claim 2)"
    );
    let mu = eps / 4.0; // Alg. 5 instantiation µ = ε/4.

    // Alg. 4 line 8: ADG* with accuracy ε/12 (so the Claim 2 algebra
    // (1+ε/4)·2(1+ε/12) ≤ 2+ε goes through).
    let mut instr = Instrumentation::default();
    let ord = instr.ordering(|| adg(g, &adg_options_for(params, rule, eps / 12.0)));
    let levels = ord.levels.expect("ADG always produces levels");
    instr.record_rounds(ord.stats.iterations, 0);

    let (colors, rounds, conflicts) = instr.coloring(|| {
        let n = g.n();
        let deg_l = constraint_degrees(g, &levels.rank);
        // Alg. 4 line 11: bitmaps of ⌈(1+µ)·deg_ℓ(v)⌉(+1) bits; SIM-COL
        // line 7 draws from exactly that palette.
        let (palette, bv_offset) = palette_layout(&deg_l, mu);
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
            seed: params.seed ^ 0xDEC,
        };

        // Alg. 4 lines 12–19: color partitions from the highest rank down.
        let mut rounds = 0u32;
        let mut conflicts = 0u64;
        let mut round_base = 0u64;
        for l in (0..levels.num_levels()).rev() {
            let _partition = pgc_obs::span!("dec.partition");
            let stats = engine.color_partition_random(levels.level(l), round_base);
            pgc_obs::counter!("conflicts", stats.retries);
            rounds += stats.rounds;
            conflicts += stats.retries;
            round_base += stats.rounds as u64;
        }
        let colors: Vec<u32> = colors.into_iter().map(|c| c.into_inner()).collect();
        (colors, rounds, conflicts)
    });
    instr.record_rounds(rounds, conflicts);
    ColoringRun::new(algo, colors, instr)
}

/// DEC-ADG-ITR (§IV-C): ADG decomposition + first-fit speculative coloring
/// within each partition. Quality ≤ ⌈2(1+ε)d⌉ + 1 with ε = `params.epsilon`
/// (the JP-ADG knob, default 0.01 — this algorithm competes in the same
/// quality regime as JP-ADG, unlike DEC-ADG's larger ε).
pub fn dec_adg_itr<G: GraphView>(g: &G, params: &Params) -> ColoringRun {
    let mut instr = Instrumentation::default();
    let ord = instr.ordering(|| {
        adg(
            g,
            &adg_options_for(params, ThresholdRule::Average, params.epsilon),
        )
    });
    let levels = ord.levels.expect("ADG always produces levels");
    instr.record_rounds(ord.stats.iterations, 0);

    let (colors, rounds, conflicts) = instr.coloring(|| {
        let n = g.n();
        let deg_l = constraint_degrees(g, &levels.rank);
        // First-fit never needs more than deg_ℓ(v)+1 candidates.
        let palette: Vec<u32> = deg_l.iter().map(|&d| d + 1).collect();
        let mut bv_offset = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        bv_offset.push(0);
        for &p in &palette {
            acc += p as u64;
            bv_offset.push(acc);
        }
        let bv = AtomicBitmap::new(acc as usize);
        let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
        let tent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
        let engine = SimColEngine {
            g,
            colors: &colors,
            tent: &tent,
            bv: &bv,
            bv_offset: &bv_offset,
            palette: &palette,
            seed: params.seed ^ 0x17,
        };
        // Conflict winners by random priority (a total order guarantees
        // progress of the deterministic first-fit draw).
        let priority: Vec<u64> = random_permutation(n, params.seed ^ 0xABC)
            .into_iter()
            .map(|p| p as u64)
            .collect();

        let mut rounds = 0u32;
        let mut conflicts = 0u64;
        for l in (0..levels.num_levels()).rev() {
            let _partition = pgc_obs::span!("dec.partition");
            let stats = engine.color_partition_first_fit(levels.level(l), &priority);
            pgc_obs::counter!("conflicts", stats.retries);
            rounds += stats.rounds;
            conflicts += stats.retries;
        }
        let colors: Vec<u32> = colors.into_iter().map(|c| c.into_inner()).collect();
        (colors, rounds, conflicts)
    });
    instr.record_rounds(rounds, conflicts);
    ColoringRun::new(Algorithm::DecAdgItr, colors, instr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_proper, bounds};
    use pgc_graph::degeneracy::degeneracy;
    use pgc_graph::gen::{generate, GraphSpec};

    fn specs() -> Vec<GraphSpec> {
        vec![
            GraphSpec::ErdosRenyi { n: 600, m: 3000 },
            GraphSpec::BarabasiAlbert { n: 600, attach: 6 },
            GraphSpec::Rmat {
                scale: 9,
                edge_factor: 8,
            },
            GraphSpec::Grid2d { rows: 20, cols: 25 },
            GraphSpec::RingOfCliques {
                cliques: 10,
                clique_size: 12,
            },
            GraphSpec::Star { n: 300 },
        ]
    }

    #[test]
    fn dec_adg_proper_and_within_bound() {
        let params = Params::default(); // dec_epsilon = 6.0
        for (i, spec) in specs().iter().enumerate() {
            let g = generate(spec, i as u64);
            let d = degeneracy(&g).degeneracy;
            let run = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
            assert_proper(&g, &run.colors);
            if d > 0 {
                assert!(
                    run.num_colors <= bounds::dec_adg(d, params.dec_epsilon),
                    "{spec:?}: {} > (2+ε)d = {}",
                    run.num_colors,
                    bounds::dec_adg(d, params.dec_epsilon)
                );
            }
        }
    }

    #[test]
    fn dec_adg_small_epsilon_quality() {
        // Claim 2 holds for all 0 < ε ≤ 8; smaller ε gives tighter colors
        // (at the cost of losing the w.h.p. runtime proof, which needs
        // ε > 4).
        let params = Params {
            dec_epsilon: 1.0,
            ..Params::default()
        };
        let g = generate(&GraphSpec::BarabasiAlbert { n: 800, attach: 8 }, 2);
        let d = degeneracy(&g).degeneracy;
        let run = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
        assert_proper(&g, &run.colors);
        assert!(run.num_colors <= bounds::dec_adg(d, 1.0));
    }

    #[test]
    fn dec_adg_m_proper_and_within_bound() {
        let params = Params::default();
        let g = generate(
            &GraphSpec::Rmat {
                scale: 9,
                edge_factor: 10,
            },
            4,
        );
        let d = degeneracy(&g).degeneracy;
        let run = dec_adg(&g, Algorithm::DecAdgM, ThresholdRule::Median, &params);
        assert_proper(&g, &run.colors);
        assert!(
            run.num_colors <= bounds::dec_adg_m(d, params.dec_epsilon),
            "{} > (4+ε)d",
            run.num_colors
        );
    }

    #[test]
    fn dec_adg_itr_proper_and_within_bound() {
        let params = Params::default(); // epsilon = 0.01
        for (i, spec) in specs().iter().enumerate() {
            let g = generate(spec, 100 + i as u64);
            let d = degeneracy(&g).degeneracy;
            let run = dec_adg_itr(&g, &params);
            assert_proper(&g, &run.colors);
            assert!(
                run.num_colors <= bounds::jp_adg(d, params.epsilon),
                "{spec:?}: {} > 2(1+ε)d+1 = {}",
                run.num_colors,
                bounds::jp_adg(d, params.epsilon)
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generate(&GraphSpec::ErdosRenyi { n: 500, m: 2500 }, 8);
        let params = Params::default();
        let a = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
        let b = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
        assert_eq!(a.colors, b.colors);
        let itr_a = dec_adg_itr(&g, &params);
        let itr_b = dec_adg_itr(&g, &params);
        assert_eq!(itr_a.colors, itr_b.colors);
    }

    #[test]
    fn constraint_degrees_bounded_by_kd() {
        // The §IV-B key fact: deg_ℓ(v) ≤ 2(1+ε/12)·d for all v.
        let g = generate(&GraphSpec::BarabasiAlbert { n: 1000, attach: 7 }, 5);
        let d = degeneracy(&g).degeneracy;
        let eps: f64 = 6.0;
        let params = Params::default();
        let ord = adg(
            &g,
            &adg_options_for(&params, ThresholdRule::Average, eps / 12.0),
        );
        let levels = ord.levels.unwrap();
        let deg_l = constraint_degrees(&g, &levels.rank);
        let bound = (2.0 * (1.0 + eps / 12.0) * d as f64).ceil() as u32;
        assert!(deg_l.iter().all(|&x| x <= bound));
    }

    #[test]
    fn trivial_graphs() {
        let params = Params::default();
        for spec in [GraphSpec::Empty { n: 0 }, GraphSpec::Empty { n: 5 }] {
            let g = generate(&spec, 0);
            let run = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
            assert_proper(&g, &run.colors);
            let run = dec_adg_itr(&g, &params);
            assert_proper(&g, &run.colors);
        }
    }

    #[test]
    #[should_panic(expected = "0 < ε ≤ 8")]
    fn rejects_out_of_range_epsilon() {
        let g = generate(&GraphSpec::Path { n: 4 }, 0);
        let params = Params {
            dec_epsilon: 9.0,
            ..Params::default()
        };
        dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
    }

    #[test]
    fn conflicts_recorded_on_cliques() {
        let g = generate(
            &GraphSpec::RingOfCliques {
                cliques: 8,
                clique_size: 16,
            },
            3,
        );
        let params = Params::default();
        let run = dec_adg(&g, Algorithm::DecAdg, ThresholdRule::Average, &params);
        // Tight palettes inside clique partitions must retry sometimes.
        assert!(run.rounds() > 0);
        assert_proper(&g, &run.colors);
    }
}
