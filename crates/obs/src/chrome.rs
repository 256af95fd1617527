//! Chrome trace-event JSON exporter.
//!
//! Converts a drained [`Trace`] into the trace-event format that
//! [Perfetto](https://ui.perfetto.dev) and `chrome://tracing` load
//! directly: one `"M"` thread-name metadata event per recorded thread,
//! one complete `"X"` event per begin/end span pair (paired per thread,
//! innermost first; spans still open when the session ended are closed at
//! the session end time), and one `"C"` counter event per counter add
//! carrying the *running total* for that `(thread, name)` — so
//! `pool.steal` / `pool.steal_fail` / `pool.park` and friends render as
//! monotonic counter tracks in Perfetto instead of a spiky per-delta
//! scatter. Timestamps are microseconds since session begin. The
//! top-level `"otherData": {"dropped": N}` records how many events the
//! rings lost to wrap-around ([`Trace::dropped`]), so a short trace says
//! so in the file itself.
//!
//! # Example
//!
//! ```
//! pgc_obs::session_begin();
//! {
//!     let _s = pgc_obs::span!("phase");
//! }
//! let trace = pgc_obs::session_end();
//! let json = pgc_obs::chrome::trace_json(&trace);
//! let doc = pgc_obs::json::Json::parse(&json).unwrap();
//! assert!(doc.get("traceEvents").is_some());
//! ```

use crate::json::Json;
use crate::recorder::{EventKind, Trace};
use std::io;
use std::path::Path;

fn us(nanos: u64) -> Json {
    Json::Num(nanos as f64 / 1000.0)
}

fn base_event(name: &str, ph: &str, tid: usize, ts: Json) -> Vec<(String, Json)> {
    vec![
        ("name".into(), Json::Str(name.into())),
        ("ph".into(), Json::Str(ph.into())),
        ("ts".into(), ts),
        ("pid".into(), Json::Num(1.0)),
        ("tid".into(), Json::Num(tid as f64)),
    ]
}

/// Render `trace` as a Chrome trace-event JSON document.
#[must_use]
pub fn trace_json(trace: &Trace) -> String {
    let mut events: Vec<Json> = Vec::new();
    for (tid, name) in &trace.threads {
        let mut e = base_event("thread_name", "M", *tid, Json::Num(0.0));
        e.push((
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(name.clone()))]),
        ));
        events.push(Json::Obj(e));
    }
    for &(tid, _) in &trace.threads {
        let mut stack: Vec<(&'static str, u64)> = Vec::new();
        // Running totals per counter name on this thread: "C" events
        // carry cumulative values, making them true counter tracks.
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for e in trace.events.iter().filter(|e| e.tid == tid) {
            match e.kind {
                EventKind::SpanBegin => stack.push((e.name, e.nanos)),
                EventKind::SpanEnd => {
                    // Unmatched ends (begin lost to ring wrap or recorded
                    // before the session) are dropped.
                    if let Some((name, t0)) = stack.pop() {
                        let mut x = base_event(name, "X", tid, us(t0));
                        x.push(("dur".into(), us(e.nanos.saturating_sub(t0))));
                        events.push(Json::Obj(x));
                    }
                }
                EventKind::Counter => {
                    let total = match totals.iter_mut().find(|(n, _)| *n == e.name) {
                        Some((_, t)) => {
                            *t += e.value;
                            *t
                        }
                        None => {
                            totals.push((e.name, e.value));
                            e.value
                        }
                    };
                    let mut c = base_event(e.name, "C", tid, us(e.nanos));
                    c.push((
                        "args".into(),
                        Json::Obj(vec![(e.name.into(), Json::Num(total as f64))]),
                    ));
                    events.push(Json::Obj(c));
                }
            }
        }
        // Close anything still open at the end of the session.
        while let Some((name, t0)) = stack.pop() {
            let mut x = base_event(name, "X", tid, us(t0));
            x.push(("dur".into(), us(trace.session_nanos.saturating_sub(t0))));
            events.push(Json::Obj(x));
        }
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        (
            "otherData".into(),
            Json::Obj(vec![("dropped".into(), Json::Num(trace.dropped as f64))]),
        ),
    ])
    .to_string()
}

/// Write [`trace_json`] to `path`. Returns the number of bytes written.
pub fn write_trace(trace: &Trace, path: impl AsRef<Path>) -> io::Result<u64> {
    let json = trace_json(trace);
    std::fs::write(path, &json)?;
    Ok(json.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{EventRecord, Trace};

    fn ev(tid: usize, kind: EventKind, name: &'static str, nanos: u64, value: u64) -> EventRecord {
        EventRecord {
            tid,
            kind,
            name,
            nanos,
            value,
        }
    }

    fn fixture() -> Trace {
        Trace {
            events: vec![
                ev(0, EventKind::SpanBegin, "outer", 1_000, 0),
                ev(0, EventKind::SpanBegin, "inner", 2_000, 0),
                ev(0, EventKind::Counter, "conflicts", 2_500, 3),
                ev(0, EventKind::SpanEnd, "inner", 3_000, 0),
                // Same counter again on tid 0: exported value accumulates.
                ev(0, EventKind::Counter, "conflicts", 3_500, 2),
                // Same name on ANOTHER thread: its track starts fresh.
                ev(1, EventKind::Counter, "conflicts", 4_200, 7),
                // An end without a begin (lost to ring wrap): dropped.
                ev(1, EventKind::SpanEnd, "stray", 500, 0),
                // tid 1's "task" never ends: closed at session end.
                ev(1, EventKind::SpanBegin, "task", 4_000, 0),
                ev(0, EventKind::SpanEnd, "outer", 5_000, 0),
            ],
            threads: vec![(0, "main".into()), (1, "pgc-par-worker".into())],
            dropped: 4,
            session_nanos: 10_000,
        }
    }

    #[test]
    fn export_parses_and_pairs_spans() {
        let trace = fixture();
        let doc = Json::parse(&trace_json(&trace)).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(phase("M"), 2, "one thread_name per thread");
        assert_eq!(phase("C"), 3, "one counter event per add");
        // outer, inner, and the auto-closed task; the stray end is dropped.
        assert_eq!(phase("X"), 3);
        // Counter tracks are cumulative per (tid, name): 3 then 3+2=5 on
        // tid 0, an independent 7 on tid 1.
        let counter_vals: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .map(|e| {
                (
                    e.get("tid").and_then(Json::as_f64).unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("conflicts"))
                        .and_then(Json::as_f64)
                        .unwrap(),
                )
            })
            .collect();
        assert!(counter_vals.contains(&(0.0, 3.0)));
        assert!(counter_vals.contains(&(0.0, 5.0)));
        assert!(counter_vals.contains(&(1.0, 7.0)));
        let inner = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("inner"))
            .unwrap();
        assert_eq!(inner.get("ts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(inner.get("dur").and_then(Json::as_f64), Some(1.0));
        let task = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("task"))
            .unwrap();
        assert_eq!(task.get("dur").and_then(Json::as_f64), Some(6.0));
        let dropped = doc.get("otherData").and_then(|o| o.get("dropped"));
        assert_eq!(
            dropped.and_then(Json::as_f64),
            Some(4.0),
            "ring-wrap losses on file"
        );
    }

    #[test]
    fn write_trace_reports_bytes() {
        let trace = fixture();
        let dir = std::env::temp_dir().join("pgc-obs-chrome-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let bytes = write_trace(&trace, &path).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(bytes, on_disk.len() as u64);
        assert!(Json::parse(&on_disk).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
