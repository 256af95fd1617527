//! The paper's Fig. 1 path as one timed unit: open the input file, run the
//! ADG ordering, color, and check the colors against the paper's
//! guarantees. Also the determinism fingerprint each pass must repeat.

use crate::workload::Format;
use pgc_core::verify::{bounds, is_proper};
use pgc_core::{Algorithm, ColoringRun, Params};
use pgc_graph::GraphView;
use std::path::Path;
use std::time::Instant;

/// The two algorithms the benchmark times end to end.
pub const ALGOS: [Algorithm; 2] = [Algorithm::JpAdg, Algorithm::DecAdgItr];

/// The four end-to-end pipelines of a traced repetition, widest first.
pub fn pairs(nproc: usize) -> [(Algorithm, usize); 4] {
    [
        (ALGOS[0], nproc),
        (ALGOS[1], nproc),
        (ALGOS[0], 1),
        (ALGOS[1], 1),
    ]
}

/// Metric-name stem of an algorithm (`e2e_<stem>_s`, `<stem>_colors`).
pub fn stem(algo: Algorithm) -> &'static str {
    match algo {
        Algorithm::JpAdg => "jp_adg",
        Algorithm::DecAdgItr => "dec_adg_itr",
        _ => unreachable!("only JP-ADG and DEC-ADG-ITR are benchmarked"),
    }
}

/// The color bound both algorithms are held to: ⌈2(1+ε)d⌉ + 1
/// (Corollary 1 for JP-ADG; DEC-ADG-ITR runs in the same ε regime).
pub fn color_bound(d: u32, params: &Params) -> u32 {
    bounds::jp_adg(d, params.epsilon)
}

/// Everything about a coloring run that must repeat exactly between passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub colors: u32,
    /// FNV-1a over the color vector's little-endian bytes.
    pub fnv: u64,
    /// ADG iterations plus coloring rounds, as `Instrumentation` counts them.
    pub rounds: u32,
    pub conflicts: u64,
}

impl Fingerprint {
    pub fn to_obj(self) -> crate::json::Obj {
        crate::json::Obj::new()
            .num("colors", f64::from(self.colors))
            .str("fnv64", &format!("{:016x}", self.fnv))
            .num("rounds", f64::from(self.rounds))
            .num("conflicts", self.conflicts as f64)
    }
}

pub fn fnv64(colors: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in colors {
        for b in c.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Check `run` on `g`: proper, and at most `bound` colors.
pub fn check<G: GraphView>(g: &G, run: &ColoringRun, bound: u32) -> Result<Fingerprint, String> {
    if run.colors.len() != g.n() {
        return Err(format!(
            "{}: {} colors for {} vertices",
            run.algorithm.name(),
            run.colors.len(),
            g.n()
        ));
    }
    if !is_proper(g, &run.colors) {
        return Err(format!("{}: improper coloring", run.algorithm.name()));
    }
    if run.num_colors > bound {
        return Err(format!(
            "{}: {} colors exceed the bound {bound}",
            run.algorithm.name(),
            run.num_colors
        ));
    }
    Ok(Fingerprint {
        colors: run.num_colors,
        fnv: fnv64(&run.colors),
        rounds: run.instr.rounds,
        conflicts: run.instr.conflicts,
    })
}

/// One timed pipeline: its wall seconds, and the fingerprint or the reason
/// it failed.
pub struct Outcome {
    pub secs: f64,
    pub result: Result<Fingerprint, String>,
}

/// Open `path` in `format`, color it with `algo` at parallel width `width`,
/// and verify. The clock stops once the colors are verified, before the
/// graph is freed.
pub fn run_e2e(
    format: Format,
    path: &Path,
    algo: Algorithm,
    params: &Params,
    bound: u32,
    width: usize,
) -> Outcome {
    fn finish<G: GraphView>(
        g: std::io::Result<G>,
        algo: Algorithm,
        params: &Params,
        bound: u32,
        t0: Instant,
    ) -> Outcome {
        let result = match g {
            Ok(g) => {
                let run = pgc_core::run(&g, algo, params);
                check(&g, &run, bound)
            }
            Err(e) => Err(format!("load failed: {e}")),
        };
        Outcome {
            secs: t0.elapsed().as_secs_f64(),
            result,
        }
    }
    pgc_par::install(width, || {
        let t0 = Instant::now();
        match format {
            Format::SnapshotV1 => finish(pgc_graph::load_snapshot(path), algo, params, bound, t0),
            Format::SnapshotV2 => finish(
                pgc_graph::load_compressed_snapshot::<()>(path),
                algo,
                params,
                bound,
                t0,
            ),
            Format::Text => finish(
                pgc_graph::io::read_edge_list_path(path),
                algo,
                params,
                bound,
                t0,
            ),
        }
    })
}

/// Samples and the pinned fingerprint of one (algorithm, width) pair.
#[derive(Default)]
pub struct Series {
    pub secs: Vec<f64>,
    pub fingerprint: Option<Fingerprint>,
    pub attempted: u64,
    pub failed: u64,
}

impl Series {
    /// Record one outcome. A failure, or a fingerprint that differs from
    /// the first pass's, counts as failed and is returned as an error.
    pub fn record(&mut self, label: &str, out: Outcome) -> Result<(), String> {
        self.attempted += 1;
        self.secs.push(out.secs);
        let res = out.result.and_then(|fp| match self.fingerprint {
            None => {
                self.fingerprint = Some(fp);
                Ok(())
            }
            Some(first) if first == fp => Ok(()),
            Some(first) => Err(format!(
                "nondeterministic: {fp:?} differs from first pass {first:?}"
            )),
        });
        res.map_err(|e| {
            self.failed += 1;
            format!("{label}: {e}")
        })
    }
}

/// The median; NaN for no samples, which the result check rejects.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len();
    if k % 2 == 1 {
        v[k / 2]
    } else {
        (v[k / 2 - 1] + v[k / 2]) / 2.0
    }
}
