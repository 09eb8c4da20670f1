//! The repository benchmark.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--mao PATH]`
//!
//! Runs one workload against the release build of `mao` (the CLI and the
//! daemon as subprocesses, the libraries through their public functions),
//! checks every output, and prints one JSON object as the last line of
//! stdout: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer ones
//! from a traced run, whose spans are also written as a Chrome trace under
//! `.bench_work/`. `--workload serve-mixed --capacity` instead measures
//! the daemon's saturation throughput for the serve traffic mix. See
//! `README.md` next to this crate.

mod compile;
mod inputs;
mod serve;
mod spec;
mod stats;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;

/// Everything a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value; names must appear in [`end_to_end`] or
    /// [`per_layer`].
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Count one checked operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }
}

/// What a workload is run with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub mao: PathBuf,
    pub tracer: Tracer,
}

/// (name, unit, better).
pub type MetricDef = (String, &'static str, &'static str);

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    (name.to_string(), unit, better)
}

/// End-to-end metrics: reported on every workload with `--trace 0`.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("op_p50_ms", "ms", "lower"),
        def("op_tail_ms", "ms", "lower"),
        def("peak_rss_mb", "MB", "lower"),
        def("output_cost_ratio", "ratio", "lower"),
        def("ok_share", "ratio", "higher"),
    ]
}

/// Every pass any workload's pipeline runs.
pub const PASSES: [&str; 12] = [
    "REDZEXT",
    "REDTEST",
    "REDMOV",
    "ADDADD",
    "CONSTFOLD",
    "DCE",
    "SCHED",
    "BRALIGN",
    "LOOP16",
    "LSDFIT",
    "NOPIN",
    "SUPEROPT",
];

/// Per-layer metrics: reported on every workload with `--trace 1` (zero
/// where the workload does not reach the layer).
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        def("attributed_share", "ratio", "higher"),
        def("failed_share", "ratio", "lower"),
        def("op_samples", "count", "higher"),
        def("op_tail_percentile", "%", "higher"),
        def("obs.trace_overhead_pct", "%", "lower"),
        def("asm.self_s", "s", "lower"),
        def("asm.parse_s", "s", "lower"),
        def("asm.emit_s", "s", "lower"),
        def("asm.snapshot_load_s", "s", "lower"),
        def("asm.code_bytes", "bytes", "lower"),
        def("core.self_s", "s", "lower"),
    ];
    for p in PASSES {
        m.push(def(&format!("core.pass.{p}_s"), "s", "lower"));
        m.push(def(&format!("core.pass.{p}.transforms"), "count", "higher"));
        m.push(def(&format!("core.ir_entries.{p}"), "count", "lower"));
    }
    m.extend([
        def("core.analysis.hits", "count", "higher"),
        def("core.analysis.misses", "count", "lower"),
        def("core.analysis.hit_rate", "ratio", "higher"),
        def("core.layout.hits", "count", "higher"),
        def("core.layout.misses", "count", "lower"),
        def("core.relax.solve_s", "s", "lower"),
        def("core.relax.iterations", "count", "lower"),
        def("core.relax.rechecks", "count", "lower"),
        def("superopt.self_s", "s", "lower"),
        def("superopt.windows", "count", "higher"),
        def("superopt.searches", "count", "lower"),
        def("superopt.rewrites", "count", "higher"),
        def("superopt.cache_hits", "count", "higher"),
        def("superopt.warm_s", "s", "lower"),
        def("sim.self_s", "s", "lower"),
        def("sim.load_s", "s", "lower"),
        def("sim.run_s", "s", "lower"),
        def("sim.minsn_per_s", "Minsn/s", "higher"),
        def("sim.cycles_ratio", "ratio", "lower"),
        def("serve.self_s", "s", "lower"),
        def("serve.hit_ms", "ms", "lower"),
        def("serve.disk_hit_ms", "ms", "lower"),
        def("serve.miss_ms", "ms", "lower"),
        def("serve.error_ms", "ms", "lower"),
        def("serve.queue_wait_ms", "ms", "lower"),
        def("serve.service_ms", "ms", "lower"),
        def("serve.result_cache.hits", "count", "higher"),
        def("serve.result_cache.disk_hits", "count", "higher"),
        def("serve.result_cache.misses", "count", "lower"),
        def("serve.result_cache.evictions", "count", "lower"),
        def("serve.offered", "count", "higher"),
        def("serve.shed", "count", "lower"),
        def("serve.snapshot_store.hits", "count", "higher"),
        def("serve.gen_late_ms", "ms", "lower"),
        def("serve.late_rates", "count", "lower"),
    ]);
    for (rate, _) in inputs::RATES {
        m.push(def(&format!("serve.p50_ms.{rate}"), "ms", "lower"));
        m.push(def(&format!("serve.tail_ms.{rate}"), "ms", "lower"));
    }
    m.extend([
        def("serve.restart_tail_ms", "ms", "lower"),
        def("serve.max_rps", "1/s", "higher"),
    ]);
    m
}

/// The workloads; `BENCHMARK.json` and `README.md` give the reason for each.
pub const WORKLOADS: [&str; 3] = ["compile-corpus", "serve-mixed", "spec-quality"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    capacity: bool,
    mao: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 30.0;
    let mut trace = false;
    let mut capacity = false;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let mut mao = PathBuf::from(target).join("release").join("mao");
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => trace = value("--trace")? == "1",
            "--mao" => mao = PathBuf::from(value("--mao")?),
            "--capacity" => capacity = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if capacity && workload != "serve-mixed" {
        return Err("--capacity measures the serve-mixed daemon only".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        capacity,
        mao,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.mao.is_file() {
        eprintln!("perfbench: no mao binary at {}", args.mao.display());
        return ExitCode::from(2);
    }
    mao_superopt::register();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        mao: args.mao,
        tracer: Tracer::new(args.trace),
    };
    if args.capacity {
        return match serve::capacity(&ctx) {
            Ok(rps) => {
                println!("{{\"capacity_rps\": {rps:?}}}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: capacity: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match args.workload.as_str() {
        "compile-corpus" => compile::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        _ => spec::run(&ctx),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.set("failed_share", failed_share);
    outcome.set("ok_share", 1.0 - failed_share);
    if args.trace {
        finish_trace(&ctx.tracer, &args.workload, args.seed, &mut outcome);
    }
    let declared: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
    for (name, value) in &outcome.metrics {
        if !declared.iter().any(|(n, _, _)| n == name) {
            eprintln!("perfbench: internal: metric `{name}` = {value} is not declared");
            return ExitCode::FAILURE;
        }
    }
    let defs = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    print_summary(&args.workload, &defs, &outcome);
    println!("{}", result_json(&defs, &outcome));
    ExitCode::SUCCESS
}

/// Layer self times, attribution and the Chrome trace file.
fn finish_trace(tracer: &Tracer, workload: &str, seed: u64, outcome: &mut Outcome) {
    let selfs = tracer.self_seconds();
    for layer in trace::LAYERS {
        outcome.set(
            format!("{layer}.self_s"),
            selfs.get(layer).copied().unwrap_or(0.0),
        );
    }
    outcome.set("attributed_share", tracer.attributed_share());
    outcome.set("obs.trace_overhead_pct", tracer.overhead_pct());
    let path = PathBuf::from(".bench_work").join(format!("trace-{workload}-{seed}.json"));
    match std::fs::create_dir_all(".bench_work")
        .and_then(|_| std::fs::write(&path, tracer.chrome_json()))
    {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn print_summary(workload: &str, defs: &[MetricDef], outcome: &Outcome) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench: {workload}: {} attempted, {} failed ({cpus} CPUs available)",
        outcome.attempted, outcome.failed
    );
    for (name, unit, _) in defs {
        let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<32} {v:>14.6} {unit}");
    }
}

/// The last stdout line: every declared metric, zero where not reached.
fn result_json(defs: &[MetricDef], outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, unit, _)) in defs.iter().enumerate() {
        let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the workloads
    /// and metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = mao_serve::json::Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<MetricDef> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    let unit: &'static str = Box::leak(s("unit").into_boxed_str());
                    let better: &'static str = Box::leak(s("better").into_boxed_str());
                    (s("name"), unit, better)
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), end_to_end());
        assert_eq!(listed("per_layer"), per_layer());
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.25);
        o.check(true, String::new);
        let line = result_json(&end_to_end(), &o);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"ok_share\": {\"value\": 0.0, \"unit\": \"ratio\"}"));
        assert!(mao_serve::json::Json::parse(&line).is_ok());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut all: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.0)
            .collect();
        assert!(all.len() <= 16 + 128);
        assert!(per_layer().len() <= 128);
        for n in &all {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        all.sort();
        let len = all.len();
        all.dedup();
        assert_eq!(all.len(), len);
    }
}
