//! `pgc-colorbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! pgc-colorbench gen     --workload W --seed S --dir D [--tiny]
//! pgc-colorbench measure --workload W --input F --d D --seconds T
//! pgc-colorbench trace   --workload W --input F --d D --seconds T --work D --out F [--tiny]
//! ```
//!
//! `gen` builds the seeded workload graph, computes its exact degeneracy
//! and writes the input file; `measure` times the file-to-verified-colors
//! pipelines with no tracing; `trace` times each layer separately. Each
//! prints one JSON object as its last stdout line. `run.py` drives the
//! three and reports the metrics.

mod json;
mod layers;
mod pipeline;
mod trace;
mod workload;

use json::Obj;
use pgc_core::Params;
use pipeline::{color_bound, median, run_e2e, stem, Series, ALGOS};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::Workload;

/// Fewest passes a measurement takes, however short `--seconds` is.
const MIN_PASSES: u32 = 3;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {k:?}"))?;
            if key == "tiny" {
                map.insert(key.to_string(), String::new());
            } else {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                map.insert(key.to_string(), v.clone());
            }
        }
        Ok(Self(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .parse()
            .map_err(|_| format!("--{key}: not a number"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.get(key).map(PathBuf::from)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn tiny(&self) -> bool {
        self.0.contains_key("tiny")
    }
}

fn gen(a: &Args) -> Result<Obj, String> {
    let w = a.workload()?;
    let seed: u64 = a.num("seed")?;
    let dir = a.path("dir")?;
    let t0 = Instant::now();
    let g = w.graph(seed, a.tiny());
    let d = pgc_graph::degeneracy(&g).degeneracy;
    let path = dir.join(w.format().file_name());
    w.format()
        .write(&g, &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Obj::new()
        .num("setup_s", setup_s)
        .str("input", w.format().file_name())
        .num("n", g.n() as f64)
        .num("arcs", g.num_arcs() as f64)
        .num("max_degree", g.max_degree() as f64)
        .num("d", d as f64))
}

fn measure(a: &Args) -> Result<Obj, String> {
    let w = a.workload()?;
    let input = a.path("input")?;
    let d: u32 = a.num("d")?;
    let seconds: f64 = a.num("seconds")?;
    let params = Params::default();
    let bound = color_bound(d, &params);
    let nproc = nproc();
    let mut errors = Vec::new();
    let mut record = |s: &mut Series, algo, width, out| {
        if let Err(e) = s.record(&format!("{}@{width}", stem(algo)), out) {
            errors.push(e);
        }
    };
    // Width `nproc` runs once per algorithm, untimed: it is checked, pins
    // the fingerprint compared across widths, and warms the pool and the
    // allocator. Its wall time is not an end-to-end metric: the pool's
    // `width` workers plus the calling thread oversubscribe a small shared
    // host, and its run-to-run spread passed 25 % of the median on every
    // workload. The traced run records it as `par.e2e_*_s`.
    let mut wide: Vec<Series> = ALGOS.iter().map(|_| Series::default()).collect();
    for (s, &algo) in wide.iter_mut().zip(&ALGOS) {
        let out = run_e2e(w.format(), &input, algo, &params, bound, nproc);
        record(s, algo, nproc, out);
    }
    let mut series: Vec<Series> = ALGOS.iter().map(|_| Series::default()).collect();
    // Whole passes only: past `MIN_PASSES`, stop before one that would
    // overrun `seconds`.
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut passes = 0u32;
    loop {
        for (s, &algo) in series.iter_mut().zip(&ALGOS) {
            let out = run_e2e(w.format(), &input, algo, &params, bound, 1);
            record(s, algo, 1, out);
        }
        passes += 1;
        let elapsed = start.elapsed();
        if passes >= MIN_PASSES && elapsed + elapsed / passes > budget {
            break;
        }
    }

    let mut metrics = Obj::new();
    let mut prints = Obj::new();
    let mut samples = Obj::new();
    let mut invariant = Obj::new();
    for ((s, ws), &algo) in series.iter().zip(&wide).zip(&ALGOS) {
        metrics = metrics
            .num(&format!("e2e_{}_1t_s", stem(algo)), median(&s.secs))
            .num(
                &format!("{}_colors", stem(algo)),
                s.fingerprint.map_or(f64::NAN, |f| f64::from(f.colors)),
            );
        invariant = invariant.bool(stem(algo), ws.fingerprint == s.fingerprint);
        for (s, width) in [(ws, nproc), (s, 1)] {
            let label = format!("{}@{width}", stem(algo));
            let secs: Vec<String> = s.secs.iter().map(|x| format!("{x:.4}")).collect();
            samples = samples.raw(&label, &format!("[{}]", secs.join(",")));
            if let Some(f) = s.fingerprint {
                prints = prints.obj(&label, f.to_obj());
            }
        }
    }
    let all = || series.iter().chain(&wide);
    let attempted: u64 = all().map(|s| s.attempted).sum();
    let failed: u64 = all().map(|s| s.failed).sum();
    Ok(Obj::new()
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .num("passes", passes as f64)
        .strs("errors", &errors)
        .obj("fingerprints", prints)
        .obj("width_invariant", invariant)
        .obj("samples", samples)
        .obj("metrics", metrics))
}

fn traced(a: &Args) -> Result<Obj, String> {
    layers::traced_run(
        a.workload()?,
        &a.path("input")?,
        a.num("d")?,
        a.num("seconds")?,
        a.tiny(),
        &a.path("work")?,
        &a.path("out")?,
    )
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("usage: pgc-colorbench <gen|measure|trace> --workload W ...");
        std::process::exit(2);
    };
    let result = Args::parse(rest).and_then(|a| match cmd.as_str() {
        "gen" => gen(&a),
        "measure" => measure(&a),
        "trace" => traced(&a),
        _ => Err(format!("unknown command {cmd:?}")),
    });
    match result {
        Ok(obj) => println!("{}", obj.finish()),
        Err(e) => {
            eprintln!("pgc-colorbench: {e}");
            std::process::exit(1);
        }
    }
}
