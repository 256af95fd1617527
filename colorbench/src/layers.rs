//! The traced run: every layer of the stack timed on its own, by spans
//! around calls into each crate's public functions (`pgc-graph`,
//! `pgc-order`, `pgc-core`, `pgc-par`), on the workload's graph.
//!
//! Before the clock starts, the workload's graph is also written in the
//! formats it does not ship in, so every layer row exists on every
//! workload. Layer times are medians over the repetitions that fit in the
//! run. Graph layers and coloring engines run at width `nproc`.

use crate::json::Obj;
use crate::pipeline::{
    check, color_bound, fnv64, median, pairs, run_e2e, stem, Fingerprint, Series, ALGOS,
};
use crate::trace::Tracer;
use crate::workload::{Format, Workload};
use pgc_core::jp::{
    dag_longest_path, jp_color_levels, jp_color_levels_sharded, jp_color_with_counts,
};
use pgc_core::verify::{is_proper, num_colors};
use pgc_core::{Algorithm, Params};
use pgc_graph::io::{read_edge_list_path, EdgeListSource};
use pgc_graph::{
    build_sharded, load_compressed_snapshot, load_snapshot, CompactCsr, CompressedCsr, GraphView,
    MappedSnapshot, ShardOptions,
};
use pgc_order::adg::iteration_bound;
use pgc_order::OrderingKind;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Shards for the sharded-layer rows.
const SHARDS: usize = 4;
/// Fewest repetitions of the layer suite, however short `--seconds` is.
const MIN_REPS: u32 = 2;
/// Empty fork–joins per `par.join` sample.
const JOINS: u32 = 100_000;

/// Parallel neighbor-id sum over every arc: a bare traversal of the
/// representation, the read every round loop pays.
fn scan<G: GraphView>(g: &G) -> u64 {
    pgc_par::map_reduce_chunks(
        g.n(),
        0,
        |r| {
            r.map(|v| g.neighbors(v as u32).map(u64::from).sum::<u64>())
                .sum::<u64>()
        },
        |a, b| a + b,
    )
    .unwrap_or(0)
}

/// Last-level cache size in bytes from sysfs, if readable.
fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok()? << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().ok()? << 20,
                None => size.parse().ok()?,
            },
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// Memory copy bandwidth in GB/s (bytes read plus bytes written per
/// second), over a buffer at least 4× the LLC so the copy streams from
/// memory. Median of three copies.
fn copy_gb_per_s(llc: u64, tiny: bool) -> f64 {
    let len = if tiny {
        8 << 20
    } else {
        (4 * llc).clamp(64 << 20, 1 << 30) as usize
    };
    let mut buf = vec![1u8; len];
    let (src, dst) = buf.split_at_mut(len / 2);
    let rates: Vec<f64> = (0..3)
        .map(|i| {
            src[i] = i as u8;
            let t0 = Instant::now();
            dst[..src.len()].copy_from_slice(src);
            std::hint::black_box(&dst[i]);
            2.0 * src.len() as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// Files of the workload's graph in every format, and the graph itself.
struct Inputs {
    v1: PathBuf,
    v2: PathBuf,
    text: PathBuf,
    text_bytes: u64,
    base: CompactCsr,
    compressed: CompressedCsr,
}

fn prepare(w: Workload, input: &Path, work: &Path) -> Result<Inputs, String> {
    let base = match w.format() {
        Format::Text => read_edge_list_path(input),
        _ => load_snapshot(input),
    }
    .map_err(|e| format!("loading {}: {e}", input.display()))?;
    let path_of = |f: Format| -> Result<PathBuf, String> {
        if f == w.format() {
            return Ok(input.to_path_buf());
        }
        let p = work.join(f.file_name());
        f.write(&base, &p)
            .map_err(|e| format!("writing {}: {e}", p.display()))?;
        Ok(p)
    };
    let (v1, v2, text) = (
        path_of(Format::SnapshotV1)?,
        path_of(Format::SnapshotV2)?,
        path_of(Format::Text)?,
    );
    let text_bytes = std::fs::metadata(&text).map_err(|e| e.to_string())?.len();
    let compressed = load_compressed_snapshot::<()>(&v2).map_err(|e| e.to_string())?;
    Ok(Inputs {
        v1,
        v2,
        text,
        text_bytes,
        base,
        compressed,
    })
}

/// Counts checks and collects what failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    errors: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.errors.push(what());
        }
    }

    fn result<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.errors.push(e)).ok()
    }
}

/// Counters the traced layers produce; each must repeat exactly across
/// repetitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
struct Counters {
    adg_iters: u32,
    jp_levels: u32,
    itr_conflicts: u64,
    itr_rounds: u32,
}

struct Ctx<'a> {
    params: Params,
    bound: u32,
    format: Format,
    input: &'a Path,
    arcs: usize,
    n: usize,
}

/// The JP-ADG pipeline split into its layers: load, ADG, async JP, verify.
fn traced_jp<G: GraphView>(
    tr: &mut Tracer,
    ctx: &Ctx,
    g: std::io::Result<G>,
) -> Result<(Fingerprint, u32), String> {
    let g = g.map_err(|e| format!("load failed: {e}"))?;
    let kind = Algorithm::JpAdg
        .ordering_kind(&ctx.params)
        .expect("JP-ADG has an ordering");
    let (ord, _) = tr.span("order.adg", |_| {
        pgc_order::compute(&g, &kind, ctx.params.seed)
    });
    let iters = ord.stats.iterations;
    let limit = iteration_bound(g.n(), ctx.params.epsilon);
    if iters > limit {
        return Err(format!(
            "ADG ran {iters} iterations, above iteration_bound {limit}"
        ));
    }
    let counts = ord
        .pred_counts
        .as_ref()
        .ok_or("ADG did not fuse the predecessor counts")?;
    let (colors, _) = tr.span("core.jp_async", |_| {
        jp_color_with_counts(&g, &ord.rho, counts)
    });
    let (proper, _) = tr.span("core.verify", |_| is_proper(&g, &colors));
    let k = num_colors(&colors);
    if !proper || k > ctx.bound {
        return Err(format!(
            "JP-ADG: proper={proper}, {k} colors, bound {}",
            ctx.bound
        ));
    }
    Ok((
        Fingerprint {
            colors: k,
            fnv: fnv64(&colors),
            rounds: iters,
            conflicts: 0,
        },
        iters,
    ))
}

/// The DEC-ADG-ITR pipeline: load, the algorithm (its ordering and
/// coloring phases split by the library's own phase timers), verify.
fn traced_dec<G: GraphView>(
    tr: &mut Tracer,
    ctx: &Ctx,
    g: std::io::Result<G>,
) -> Result<(Fingerprint, [f64; 2]), String> {
    let g = g.map_err(|e| format!("load failed: {e}"))?;
    let (run, _) = tr.span("core.dec_adg_itr", |_| {
        pgc_core::run(&g, Algorithm::DecAdgItr, &ctx.params)
    });
    let (fp, _) = tr.span("core.verify", |_| check(&g, &run, ctx.bound));
    let phases = [
        run.instr.ordering_time.as_secs_f64(),
        run.instr.coloring_time.as_secs_f64(),
    ];
    fp.map(|fp| (fp, phases))
}

/// Open the workload's input in its own format and hand it to `f`.
macro_rules! with_input {
    ($tr:expr, $ctx:expr, $f:ident) => {
        match $ctx.format {
            Format::SnapshotV1 => {
                let (g, _) = $tr.span("graph.load", |_| load_snapshot($ctx.input));
                $f($tr, $ctx, g)
            }
            Format::SnapshotV2 => {
                let (g, _) = $tr.span("graph.load", |_| load_compressed_snapshot::<()>($ctx.input));
                $f($tr, $ctx, g)
            }
            Format::Text => {
                let (g, _) = $tr.span("graph.load", |_| read_edge_list_path($ctx.input));
                $f($tr, $ctx, g)
            }
        }
    };
}

/// Layers that run on the resident graph in the workload's own
/// representation: the level-synchronous JP engine against Lemma 7's |P|.
fn resident_layers<G: GraphView>(
    tr: &mut Tracer,
    ctx: &Ctx,
    g: &G,
    checks: &mut Checks,
    async_fnv: u64,
) -> u32 {
    let kind = Algorithm::JpAdg
        .ordering_kind(&ctx.params)
        .expect("JP-ADG has an ordering");
    let ord = pgc_order::compute(g, &kind, ctx.params.seed);
    let ((colors, levels), _) = tr.span("core.jp_level", |_| jp_color_levels(g, &ord.rho));
    let path = dag_longest_path(g, &ord.rho);
    checks.expect(levels == path, || {
        format!("JP level count {levels} != dag_longest_path {path}")
    });
    checks.expect(fnv64(&colors) == async_fnv, || {
        "level-synchronous JP colors differ from async JP colors".into()
    });
    levels
}

/// Run the traced layers for `seconds` and write the span file to `out`.
/// Returns the output object (metrics, counts, errors).
pub fn traced_run(
    w: Workload,
    input: &Path,
    d: u32,
    seconds: f64,
    tiny: bool,
    work: &Path,
    out: &Path,
) -> Result<Obj, String> {
    let nproc = crate::nproc();
    let params = Params::default();
    let inputs = prepare(w, input, work)?;
    let native_bytes = match w.format() {
        Format::SnapshotV2 => inputs.compressed.memory_footprint(),
        _ => inputs.base.memory_footprint(),
    }
    .structural_bytes();
    let ctx = Ctx {
        bound: color_bound(d, &params),
        params,
        format: w.format(),
        input,
        arcs: inputs.base.num_arcs(),
        n: inputs.base.n(),
    };
    let llc = llc_bytes();
    let copy_bw = copy_gb_per_s(llc.unwrap_or(32 << 20), tiny);

    let mut tr = Tracer::with_capacity(1 << 16);
    let mut checks = Checks::default();
    let mut e2e: Vec<Series> = (0..4).map(|_| Series::default()).collect();
    let mut counters: Option<Counters> = None;
    let mut traced: [Option<Fingerprint>; 2] = [None; 2];
    let mut steals = Vec::new();
    let mut joins_ns = Vec::new();
    let mut dec_phases = Vec::new();
    let expect_sum = scan(&inputs.base);
    // Whole repetitions only: past `MIN_REPS`, stop before one that would
    // overrun `seconds`.
    let budget = std::time::Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut reps = 0u32;
    loop {
        reps += 1;
        let mut c = Counters::default();
        tr.span("rep", |tr| {
            pgc_par::install(nproc, || {
                let arcs = ctx.arcs;
                let (g, _) = tr.span("graph.text_build", |_| read_edge_list_path(&inputs.text));
                checks.expect(g.is_ok_and(|g| g.num_arcs() == arcs), || {
                    "text build".into()
                });
                let (g, _) = tr.span("graph.load_v1_copy", |_| load_snapshot(&inputs.v1));
                checks.expect(g.is_ok_and(|g| g.num_arcs() == arcs), || {
                    "v1 copy load".into()
                });
                let (g, _) = tr.span("graph.load_v1_mmap", |_| {
                    MappedSnapshot::<()>::open(&inputs.v1)
                });
                checks.expect(g.is_ok_and(|g| g.num_arcs() == arcs), || {
                    "v1 mmap load".into()
                });
                let (g, _) = tr.span("graph.load_v2_map", |_| {
                    load_compressed_snapshot::<()>(&inputs.v2)
                });
                checks.expect(g.is_ok_and(|g| g.num_arcs() == arcs), || {
                    "v2 map load".into()
                });
                let (g, _) = tr.span("graph.load_v2_decode", |_| load_snapshot(&inputs.v2));
                checks.expect(g.is_ok_and(|g| g.num_arcs() == arcs), || {
                    "v2 decode load".into()
                });

                let (s, _) = tr.span("graph.scan_compact", |_| scan(&inputs.base));
                checks.expect(s == expect_sum, || "compact scan sum".into());
                let (s, _) = tr.span("graph.scan_compressed", |_| scan(&inputs.compressed));
                checks.expect(s == expect_sum, || "compressed scan sum".into());

                let (sh, _) = tr.span("graph.sharded_build", |_| {
                    build_sharded(
                        &EdgeListSource::new(inputs.text.clone()),
                        &ShardOptions::resident(SHARDS),
                    )
                });
                if let Some(sh) = checks.result(sh.map_err(|e| format!("sharded build: {e}"))) {
                    let (s, _) = tr.span("graph.scan_sharded", |_| scan(&sh));
                    checks.expect(s == expect_sum, || "sharded scan sum".into());
                    let opts = match Algorithm::JpAdg.ordering_kind(&ctx.params) {
                        Some(OrderingKind::Adg(o)) => o,
                        _ => unreachable!("JP-ADG orders with ADG"),
                    };
                    let ((colors, _), _) = tr.span("core.jp_adg_sharded", |_| {
                        let ord = pgc_order::adg_with_shards(&sh, &opts, Some(sh.boundaries()));
                        jp_color_levels_sharded(&sh, &ord.rho, sh.boundaries())
                    });
                    let k = num_colors(&colors);
                    checks.expect(is_proper(&sh, &colors) && k <= ctx.bound, || {
                        format!("sharded JP-ADG: {k} colors, bound {}", ctx.bound)
                    });
                }

                let steals0 = pgc_par::steal_count();
                let (jp, _) = tr.span("pipeline.jp_adg", |tr| with_input!(tr, &ctx, traced_jp));
                steals.push((pgc_par::steal_count() - steals0) as f64);
                if let Some((fp, iters)) = checks.result(jp) {
                    traced[0] = Some(fp);
                    c.adg_iters = iters;
                    c.jp_levels = match w.format() {
                        Format::SnapshotV2 => {
                            resident_layers(tr, &ctx, &inputs.compressed, &mut checks, fp.fnv)
                        }
                        _ => resident_layers(tr, &ctx, &inputs.base, &mut checks, fp.fnv),
                    };
                }
                let (dec, _) = tr.span("pipeline.dec_adg_itr", |tr| {
                    with_input!(tr, &ctx, traced_dec)
                });
                if let Some((fp, phases)) = checks.result(dec) {
                    traced[1] = Some(fp);
                    c.itr_conflicts = fp.conflicts;
                    c.itr_rounds = fp.rounds.saturating_sub(c.adg_iters);
                    dec_phases.push(phases);
                }

                let (_, secs) = tr.span("par.join", |_| {
                    for _ in 0..JOINS {
                        pgc_par::join(|| (), || ());
                    }
                });
                joins_ns.push(secs * 1e9 / f64::from(JOINS));
            });
            // Untraced end-to-end pipelines, for the tracing overhead and
            // the width speed-ups.
            for (i, (algo, width)) in pairs(nproc).into_iter().enumerate() {
                let label = format!("{}@{width}", stem(algo));
                let (o, _) = tr.span(e2e_span(i), |_| {
                    run_e2e(ctx.format, ctx.input, algo, &ctx.params, ctx.bound, width)
                });
                checks.attempted += 1;
                if let Err(e) = e2e[i].record(&label, o) {
                    checks.errors.push(e);
                }
            }
        });
        checks.expect(counters.is_none_or(|prev| prev == c), || {
            format!("layer counters changed between repetitions: {counters:?} vs {c:?}")
        });
        counters.get_or_insert(c);
        let elapsed = start.elapsed();
        if reps >= MIN_REPS && elapsed + elapsed / reps > budget {
            break;
        }
    }
    for (i, fp) in traced.into_iter().enumerate() {
        checks.expect(fp.is_some() && fp == e2e[i].fingerprint, || {
            format!(
                "{}: traced run {fp:?} differs from untraced {:?}",
                stem(ALGOS[i]),
                e2e[i].fingerprint
            )
        });
    }
    let c = counters.unwrap_or_default();
    std::fs::write(out, tr.to_json()).map_err(|e| format!("writing {}: {e}", out.display()))?;

    let spans = tr.durations();
    let med = |name: &str| spans.get(name).map_or(f64::NAN, |v| median(v));
    let e2e_med = |i: usize| median(&e2e[i].secs);
    let native_scan = match w.format() {
        Format::SnapshotV2 => med("graph.scan_compressed"),
        _ => med("graph.scan_compact"),
    };
    let scan_bytes = match w.format() {
        Format::SnapshotV2 => inputs.compressed.memory_footprint().encoded_len(),
        _ => 4 * ctx.arcs,
    };
    let scan_gb_per_s = scan_bytes as f64 / native_scan / 1e9;
    let dec_order: Vec<f64> = dec_phases.iter().map(|p| p[0]).collect();
    let dec_color: Vec<f64> = dec_phases.iter().map(|p| p[1]).collect();
    let failed = checks.errors.len() as u64;
    let metrics = Obj::new()
        .num("graph.text_build_s", med("graph.text_build"))
        .num(
            "graph.text_mb_per_s",
            inputs.text_bytes as f64 / 1e6 / med("graph.text_build"),
        )
        .num("graph.load_v1_copy_s", med("graph.load_v1_copy"))
        .num("graph.load_v1_mmap_s", med("graph.load_v1_mmap"))
        .num("graph.load_v2_map_s", med("graph.load_v2_map"))
        .num("graph.load_v2_decode_s", med("graph.load_v2_decode"))
        .num("graph.scan_compact_s", med("graph.scan_compact"))
        .num("graph.scan_compressed_s", med("graph.scan_compressed"))
        .num("graph.scan_gb_per_s", scan_gb_per_s)
        .num(
            "graph.decode_overhead",
            med("graph.scan_compressed") / med("graph.scan_compact"),
        )
        .num("graph.scan_bw_frac", scan_gb_per_s / copy_bw)
        .num("graph.sharded_build_s", med("graph.sharded_build"))
        .num("graph.scan_sharded_s", med("graph.scan_sharded"))
        .num("core.jp_adg_sharded_s", med("core.jp_adg_sharded"))
        .num("order.adg_s", med("order.adg"))
        .num("order.adg_iters", c.adg_iters as f64)
        .num(
            "order.adg_marcs_per_s",
            ctx.arcs as f64 / 1e6 / med("order.adg"),
        )
        .num("core.jp_async_s", med("core.jp_async"))
        .num("core.jp_level_s", med("core.jp_level"))
        .num("core.jp_levels", c.jp_levels as f64)
        .num("core.dec_itr_order_s", median(&dec_order))
        .num("core.dec_itr_color_s", median(&dec_color))
        .num("core.itr_conflicts", c.itr_conflicts as f64)
        .num("core.itr_rounds", c.itr_rounds as f64)
        .num(
            "core.itr_conflict_ratio",
            c.itr_conflicts as f64 / ctx.n as f64,
        )
        .num("core.verify_s", med("core.verify"))
        .num("par.join_ns", median(&joins_ns))
        .num("par.steals", median(&steals))
        .num("par.e2e_jp_adg_s", e2e_med(0))
        .num("par.e2e_dec_adg_itr_s", e2e_med(1))
        .num("par.speedup_jp_adg", e2e_med(2) / e2e_med(0))
        .num("par.speedup_dec_adg_itr", e2e_med(3) / e2e_med(1))
        .num(
            "trace.overhead_frac",
            med("pipeline.jp_adg") / e2e_med(0) - 1.0,
        )
        .num("trace.spans", tr.spans().len() as f64)
        .num("trace.dropped", tr.dropped() as f64)
        .num("fail_frac", failed as f64 / checks.attempted as f64)
        .num("machine.nproc", nproc as f64)
        .num(
            "machine.llc_mib",
            // 0 when sysfs does not say.
            llc.map_or(0.0, |b| b as f64 / (1 << 20) as f64),
        )
        .num("machine.copy_gb_per_s", copy_bw)
        .num("graph.bytes_mib", native_bytes as f64 / (1 << 20) as f64);
    // The scan rate counts computed bytes, not bytes that reached memory.
    let note = match llc {
        Some(llc) if (native_bytes as u64) < 4 * llc => format!(
            "graph.scan_gb_per_s counts computed bytes; the graph's {:.1} MiB is under 4x the \
             {} MiB LLC, so the cache can absorb part of the scan",
            native_bytes as f64 / (1 << 20) as f64,
            llc >> 20
        ),
        _ => "graph.scan_gb_per_s counts computed bytes".to_string(),
    };
    Ok(Obj::new()
        .str("note", &note)
        .num("attempted", checks.attempted as f64)
        .num("failed", failed as f64)
        .num("reps", reps as f64)
        .strs("errors", &checks.errors)
        .obj("metrics", metrics))
}

fn e2e_span(i: usize) -> &'static str {
    [
        "e2e.jp_adg",
        "e2e.dec_adg_itr",
        "e2e.jp_adg_1t",
        "e2e.dec_adg_itr_1t",
    ][i]
}
