//! Multi-threaded correctness: every `Algorithm` variant must produce a
//! `verify`-valid coloring at widths 1, 2, and 8 — and, because every
//! algorithm in this workspace is schedule-deterministic (JP by the
//! function-of-predecessors argument, the speculative family by phase
//! barriers + total-order conflict rules, reductions by the fixed combine
//! tree), the *same* coloring at every width.

use parallel_graph_coloring as pgc;
use pgc::color::{run, verify, Algorithm, Params};
use pgc::graph::gen::{generate, GraphSpec};
use pgc_harness::experiments::with_threads;

const WIDTHS: [usize; 3] = [1, 2, 8];

fn graphs() -> Vec<(&'static str, pgc::graph::CompactCsr)> {
    vec![
        // Big enough that parallel loops split into several leaves.
        (
            "rmat-11",
            generate(
                &GraphSpec::Rmat {
                    scale: 11,
                    edge_factor: 8,
                },
                3,
            ),
        ),
        (
            "cliques",
            generate(
                &GraphSpec::RingOfCliques {
                    cliques: 40,
                    clique_size: 12,
                },
                5,
            ),
        ),
    ]
}

#[test]
fn every_algorithm_is_proper_at_every_width() {
    let params = Params::default();
    for (name, g) in graphs() {
        for &t in &WIDTHS {
            with_threads(t, || {
                for algo in Algorithm::all() {
                    let r = run(&g, algo, &params);
                    verify::assert_proper(&g, &r.colors);
                    assert_eq!(
                        r.instr.threads,
                        t,
                        "{name}/{}: run must record its pool width",
                        algo.name()
                    );
                }
            });
        }
    }
}

/// Work stealing makes the *schedule* nondeterministic (which worker runs
/// which leaf depends on steal timing), so determinism must hold by
/// construction, not by luck: repeated runs at width 8 — each with fresh
/// steal jitter — must reproduce the exact same coloring.
#[test]
fn colorings_are_stable_across_repeated_stolen_runs() {
    let params = Params::default();
    let (name, g) = graphs().swap_remove(0);
    for algo in [Algorithm::JpLlf, Algorithm::Itr, Algorithm::JpAdg] {
        let baseline = with_threads(8, || run(&g, algo, &params)).colors;
        for rep in 1..4 {
            let colors = with_threads(8, || run(&g, algo, &params)).colors;
            assert_eq!(
                colors,
                baseline,
                "{name}/{}: width-8 rep {rep} diverged under steal jitter",
                algo.name()
            );
        }
    }
}

#[test]
fn colorings_are_identical_across_widths() {
    let params = Params::default();
    for (name, g) in graphs() {
        for algo in Algorithm::all() {
            let baseline = with_threads(1, || run(&g, algo, &params)).colors;
            for &t in &WIDTHS[1..] {
                let colors = with_threads(t, || run(&g, algo, &params)).colors;
                assert_eq!(
                    colors,
                    baseline,
                    "{name}/{}: width {t} diverged from sequential",
                    algo.name()
                );
            }
        }
    }
}

/// The JP oracle, independent of the engine: for a fixed ρ, JP's coloring
/// equals sequential greedy in descending-ρ order, on every view and at
/// every width. The case with unsorted ADG batches has a removal sequence
/// whose reverse is not descending ρ, so the colorer takes its sort path.
#[test]
fn jp_equals_greedy_in_priority_order() {
    use pgc::color::greedy::greedy_by_priority;
    use pgc::graph::sharded::ShardOptions;
    use pgc::graph::{CompressedCsr, GraphView, InducedView};

    fn check<G: GraphView>(view: &str, g: &G, algo: Algorithm, params: &Params) {
        let kind = algo.ordering_kind(params).expect("JP has an ordering");
        let ord = pgc::order::compute(g, &kind, params.seed);
        let oracle = greedy_by_priority(g, &ord.rho);
        for t in [1, 2] {
            let colors = with_threads(t, || run(g, algo, params)).colors;
            assert_eq!(
                colors,
                oracle,
                "{view}/{}: width {t} differs from greedy in ρ order",
                algo.name()
            );
        }
    }

    let spec = GraphSpec::Rmat {
        scale: 11,
        edge_factor: 8,
    };
    let g = generate(&spec, 3);
    let z = CompressedCsr::from_compact(&g);
    let (sh, _) =
        pgc::graph::gen::generate_sharded_with_stats(&spec, 3, &ShardOptions::resident(3));
    let members: Vec<u32> = (0..g.n() as u32).filter(|v| v % 3 != 1).collect();
    let induced = InducedView::new(&g, &members);
    let params = Params::default();
    let jps: Vec<Algorithm> = Algorithm::all()
        .into_iter()
        .filter(|a| a.name().starts_with("JP-"))
        .collect();
    assert_eq!(jps.len(), 9, "all nine JP orderings");
    for algo in jps {
        check("compact", &g, algo, &params);
        check("compressed", &z, algo, &params);
        check("sharded", &sh, algo, &params);
        check("induced", &induced, algo, &params);
    }

    let unsorted = Params {
        adg_sort_batches: false,
        ..Params::default()
    };
    let kind = Algorithm::JpAdg.ordering_kind(&unsorted).unwrap();
    let ord = pgc::order::compute(&g, &kind, unsorted.seed);
    let seq = &ord.levels.as_ref().expect("ADG has levels").seq;
    assert!(
        seq.windows(2)
            .any(|w| ord.rho[w[0] as usize] > ord.rho[w[1] as usize]),
        "unsorted batches must leave the removal sequence out of ρ order"
    );
    check("compact, unsorted batches", &g, Algorithm::JpAdg, &unsorted);
}
