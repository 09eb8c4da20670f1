//! Spans around the benchmark's calls into each layer, recorded through
//! `mao_obs::Recorder` (the recorder behind `mao --profile`).
//!
//! A span's name starts with its layer (`asm.parse` belongs to `asm`),
//! which is also its category; the operation it belongs to rides along as
//! its `op` argument, and its parent is whatever span is open on the same
//! thread. Root spans (`bench.*`) frame the traced work and are not a layer
//! of the program. The one addition to the recorder is
//! [`Tracer::record`], for a span whose interval was measured elsewhere:
//! a serve phase, and each stretch of it in which requests were
//! outstanding, timed from when they were due.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use mao_obs::{Recorder, Span, SpanRecord};

/// Layers whose self time counts as attributed.
pub const LAYERS: [&str; 5] = ["asm", "core", "superopt", "sim", "serve"];

/// Ids of [`Tracer::record`]ed spans start here, clear of the recorder's.
const EXTERNAL_IDS: u64 = 1 << 62;

/// The layer (and span category) a span name belongs to: its first
/// dot-separated component when that is a layer, else `bench`.
pub fn layer_of(name: &str) -> &'static str {
    let head = name.split('.').next().unwrap_or(name);
    LAYERS.into_iter().find(|l| *l == head).unwrap_or("bench")
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per span.
pub struct Tracer {
    rec: Recorder,
    /// Taken just before the recorder's own epoch; places [`Tracer::record`]
    /// intervals on the recorder's clock to within a microsecond.
    origin: Instant,
    external: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        let origin = Instant::now();
        Tracer {
            rec: if enabled {
                Recorder::recording()
            } else {
                Recorder::off()
            },
            origin,
            external: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// Open a span now; it closes when dropped.
    pub fn span(&self, name: &str, op: u64) -> Span {
        let mut span = self.rec.span(layer_of(name), name);
        span.arg("op", op);
        span
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name, op);
        f()
    }

    /// Record a span whose interval was measured elsewhere, on track `tid`,
    /// and return its id (a parent for further recorded spans).
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        op: u64,
        tid: u64,
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_micros() as u64;
        let mut external = self.external.lock().expect("no panic while recording");
        let id = EXTERNAL_IDS + external.len() as u64;
        external.push(SpanRecord {
            id,
            parent,
            tid,
            cat: layer_of(name).to_string(),
            name: name.to_string(),
            start_us: us(start),
            dur_us: us(end).saturating_sub(us(start)),
            args: vec![("op".to_string(), op.to_string())],
        });
        id
    }

    fn records(&self) -> Vec<SpanRecord> {
        let mut all = self.rec.records();
        all.extend(
            self.external
                .lock()
                .expect("no panic while recording")
                .iter()
                .cloned(),
        );
        all
    }

    /// Self time in seconds per layer: each span's duration minus the time
    /// its child spans cover. Root spans land under `bench`.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let records = self.records();
        let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &records {
            if let Some(p) = r.parent {
                *child_us.entry(p).or_insert(0) += r.dur_us;
            }
        }
        let mut out = BTreeMap::new();
        for r in &records {
            let own = r
                .dur_us
                .saturating_sub(child_us.get(&r.id).copied().unwrap_or(0));
            *out.entry(layer_of(&r.name)).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Seconds covered by root spans: the traced wall time.
    pub fn root_seconds(&self) -> f64 {
        self.records()
            .iter()
            .filter(|r| r.parent.is_none())
            .map(|r| r.dur_us as f64 / 1e6)
            .sum()
    }

    /// Sum of layer self time over traced wall time.
    pub fn attributed_share(&self) -> f64 {
        let wall = self.root_seconds();
        if wall <= 0.0 {
            return 0.0;
        }
        let selfs = self.self_seconds();
        LAYERS.iter().filter_map(|l| selfs.get(l)).sum::<f64>() / wall
    }

    /// What recording costs, as a percentage of traced wall time: the
    /// spans recorded times the measured cost of recording one span. This
    /// is the whole difference between a traced and an untraced run, which
    /// make the same calls.
    pub fn overhead_pct(&self) -> f64 {
        const CALIBRATION_SPANS: u32 = 20_000;
        let scratch = Tracer::new(true);
        let start = Instant::now();
        for i in 0..CALIBRATION_SPANS {
            drop(scratch.span("core.pass.CALIBRATE", u64::from(i)));
        }
        let per_span = start.elapsed().as_secs_f64() / f64::from(CALIBRATION_SPANS);
        let wall = self.root_seconds();
        if wall <= 0.0 {
            return 0.0;
        }
        self.records().len() as f64 * per_span / wall * 100.0
    }

    /// Total duration in seconds of spans named exactly `name`, and how many
    /// there were.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.records()
            .iter()
            .filter(|r| r.name == name)
            .fold((0.0, 0), |(t, n), r| (t + r.dur_us as f64 / 1e6, n + 1))
    }

    /// Chrome trace JSON: the recorder's export, with the
    /// [`Tracer::record`]ed spans appended in the same event shape.
    pub fn chrome_json(&self) -> String {
        let mut out = self.rec.chrome_trace_json();
        let body_end = out.len() - "]}".len();
        out.truncate(body_end);
        for r in self
            .external
            .lock()
            .expect("no panic while recording")
            .iter()
        {
            if !out.ends_with('[') {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\
                 \"tid\":{},\"args\":{{\"op\":\"{}\"}}}}",
                r.name, r.cat, r.start_us, r.dur_us, r.tid, r.args[0].1
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("asm.parse", 0));
        let now = Instant::now();
        assert_eq!(t.record("serve.request", now, now, None, 0, 1), 0);
        assert_eq!(t.root_seconds(), 0.0);
        assert!(t.self_seconds().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let at = |ms: u64| t.origin + Duration::from_millis(ms);
        let root = t.record("bench.op", at(0), at(100), None, 1, 1);
        let pass = t.record("core.pass.DCE", at(10), at(70), Some(root), 1, 1);
        t.record("asm.emit", at(70), at(95), Some(root), 1, 1);
        t.record("core.relax", at(20), at(30), Some(pass), 1, 1);
        let selfs = t.self_seconds();
        assert!((selfs["bench"] - 0.015).abs() < 1e-9);
        assert!((selfs["core"] - 0.060).abs() < 1e-9);
        assert!((selfs["asm"] - 0.025).abs() < 1e-9);
        assert!((t.root_seconds() - 0.1).abs() < 1e-9);
        assert!((t.attributed_share() - 0.85).abs() < 1e-9);
        assert!(t.overhead_pct() > 0.0 && t.overhead_pct() < 1.0);
        assert_eq!(t.total("core.relax").1, 1);
    }

    #[test]
    fn nested_spans_and_recorded_spans_share_one_trace() {
        let t = Tracer::new(true);
        {
            let _root = t.span("bench.compile", 7);
            t.time("asm.parse", 7, || {
                std::thread::sleep(Duration::from_millis(2))
            });
        }
        let now = Instant::now();
        t.record(
            "serve.request",
            now,
            now + Duration::from_millis(1),
            None,
            3,
            9,
        );
        let (parse_s, n) = t.total("asm.parse");
        assert_eq!(n, 1);
        assert!(parse_s >= 0.002);
        // The parse is the root's child, so it is attributed to `asm`.
        assert!(t.self_seconds()["asm"] >= 0.002);
        let json = t.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{"));
        assert!(json.contains("\"name\":\"asm.parse\",\"cat\":\"asm\""));
        assert!(json.contains("\"args\":{\"op\":\"7\"}"));
        assert!(json.contains("\"name\":\"serve.request\",\"cat\":\"serve\""));
        assert!(json.contains("\"tid\":9,\"args\":{\"op\":\"3\"}}]}"));
        assert!(mao_serve::json::Json::parse(&json).is_ok());
    }

    #[test]
    fn layers_come_from_the_name() {
        assert_eq!(layer_of("core.pass.SCHED"), "core");
        assert_eq!(layer_of("superopt.pass.SUPEROPT"), "superopt");
        assert_eq!(layer_of("bench.phase.lo"), "bench");
        assert_eq!(layer_of("serve"), "serve");
    }
}
