//! Helpers shared by the workloads: running the pipeline in-process,
//! measuring emitted code, child processes and peak memory.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use mao::pass::{parse_invocations, run_pipeline_observed, PipelineConfig};
use mao::{AnalysisCache, MaoUnit, Obs};

use crate::trace::Tracer;
use crate::Outcome;

/// What one traced or untraced in-process compile observed.
#[derive(Debug, Default, Clone)]
pub struct Compiled {
    pub asm: String,
    /// Per pass: (name, seconds, transformations, IR entries after it).
    pub passes: Vec<(String, f64, usize, usize)>,
    pub analyses: mao::CacheStats,
    pub superopt: [u64; 4],
    /// Encoded text bytes of the output, from its final relaxation.
    pub text_bytes: u64,
}

/// Parse → pipeline → relax → emit in this process, one pipeline call per
/// pass so each pass gets its own span. All passes share one analysis
/// cache, as in a single pipeline run.
pub fn compile(
    text: &str,
    pipeline: &str,
    jobs: usize,
    tracer: &Tracer,
    op: u64,
) -> Result<Compiled, String> {
    let mut unit = tracer
        .time("asm.parse", op, || MaoUnit::parse_with_jobs(text, jobs))
        .map_err(|e| format!("parse: {e}"))?;
    let invocations = parse_invocations(pipeline).map_err(|e| e.to_string())?;
    let analyses = Arc::new(AnalysisCache::new());
    let obs = Obs::off();
    let config = PipelineConfig { jobs };
    let mut out = Compiled::default();
    for inv in invocations {
        let layer = if inv.name == "SUPEROPT" {
            "superopt"
        } else {
            "core"
        };
        let name = format!("{layer}.pass.{}", inv.name);
        let start = Instant::now();
        let report = tracer
            .time(&name, op, || {
                run_pipeline_observed(
                    &mut unit,
                    std::slice::from_ref(&inv),
                    None,
                    &config,
                    &analyses,
                    &obs,
                )
            })
            .map_err(|e| format!("{}: {e}", inv.name))?;
        let seconds = start.elapsed().as_secs_f64();
        out.passes.push((
            inv.name.clone(),
            seconds,
            report.total_transformations(),
            unit.len(),
        ));
        out.analyses = report.cache;
    }
    let counter = |name: &str| obs.metrics.counter_value(name);
    out.superopt = [
        counter("mao_superopt_windows_total"),
        counter("mao_superopt_searches_total"),
        counter("mao_superopt_rewrites_total"),
        counter("mao_superopt_cache_hits_total"),
    ];
    out.text_bytes = tracer.time("core.relax", op, || text_bytes(&unit))?;
    out.asm = tracer.time("asm.emit", op, || unit.emit());
    Ok(out)
}

/// Per-layer metrics of the pipeline: times are per operation (span total
/// over `ops`); counts are summed over `distinct`, one compile of each
/// distinct input; `relax` is the (iterations, rechecks) those compiles
/// cost.
pub fn set_pipeline_layers(
    tracer: &Tracer,
    ops: usize,
    distinct: &[Compiled],
    relax: (u64, u64),
    out: &mut Outcome,
) {
    let per_op = |name: &str| tracer.total(name).0 / ops.max(1) as f64;
    out.set("asm.parse_s", per_op("asm.parse"));
    out.set("asm.emit_s", per_op("asm.emit"));
    out.set("core.relax.solve_s", per_op("core.relax"));
    out.set("core.relax.iterations", relax.0 as f64);
    out.set("core.relax.rechecks", relax.1 as f64);
    let mut sum = |name: String, v: f64| *out.metrics.entry(name).or_insert(0.0) += v;
    let mut analyses = mao::CacheStats::default();
    for c in distinct {
        for (name, _, transforms, entries) in &c.passes {
            sum(format!("core.pass.{name}.transforms"), *transforms as f64);
            sum(format!("core.ir_entries.{name}"), *entries as f64);
        }
        for (name, v) in ["windows", "searches", "rewrites", "cache_hits"]
            .iter()
            .zip(c.superopt)
        {
            sum(format!("superopt.{name}"), v as f64);
        }
        sum("asm.code_bytes".into(), c.text_bytes as f64);
        analyses.hits += c.analyses.hits;
        analyses.misses += c.analyses.misses;
        analyses.layout_hits += c.analyses.layout_hits;
        analyses.layout_misses += c.analyses.layout_misses;
    }
    for (name, ..) in distinct.first().map_or(&[][..], |c| &c.passes[..]) {
        let layer = if name == "SUPEROPT" {
            "superopt"
        } else {
            "core"
        };
        out.set(
            format!("core.pass.{name}_s"),
            per_op(&format!("{layer}.pass.{name}")),
        );
    }
    out.set("core.analysis.hits", analyses.hits as f64);
    out.set("core.analysis.misses", analyses.misses as f64);
    out.set("core.analysis.hit_rate", analyses.hit_rate());
    out.set("core.layout.hits", analyses.layout_hits as f64);
    out.set("core.layout.misses", analyses.layout_misses as f64);
}

/// Encoded bytes of every text section of `unit`, from its relaxed layout.
pub fn text_bytes(unit: &MaoUnit) -> Result<u64, String> {
    let layout = mao::relax::relax(unit).map_err(|e| e.to_string())?;
    Ok(unit
        .sections()
        .iter()
        .filter(|s| s.is_text())
        .flat_map(|s| s.entry_ids())
        .map(|id| u64::from(layout.size[id]))
        .sum())
}

/// Encoded text bytes of an assembly text.
pub fn text_bytes_of(asm: &str) -> Result<u64, String> {
    let unit = MaoUnit::parse(asm).map_err(|e| format!("parse: {e}"))?;
    text_bytes(&unit)
}

/// A finished child process.
pub struct Ran {
    pub seconds: f64,
    pub ok: bool,
    pub stderr: String,
}

/// Run `program args…` to completion, timing it from spawn to exit.
pub fn run(program: &Path, args: &[String]) -> Result<Ran, String> {
    let start = Instant::now();
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", program.display()))?;
    Ok(Ran {
        seconds: start.elapsed().as_secs_f64(),
        ok: out.status.success(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    })
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set in MB of the largest child this process has waited
/// for. Linux carries a process's peak over `exec` from the process that
/// spawned it, so a child's figure is at least this process's own peak at
/// the time; on `compile-corpus` that is well below a compile's.
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = Rusage::default();
    // RUSAGE_CHILDREN = -1; ru_maxrss is in KiB on Linux.
    // SAFETY: `usage` is a properly sized, writable `struct rusage`.
    if unsafe { getrusage(-1, &mut usage) } != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

/// Peak resident set in MB of a running process (`None`: this one): the
/// `VmHWM` of its `/proc` status, which belongs to its own address space
/// and so, unlike `getrusage`, does not carry over the peak of whatever
/// spawned it.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let pid = pid.map_or("self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }

    /// `file` inside the work directory, as a string for pass options.
    pub fn arg(&self, file: &str) -> String {
        self.path(file).to_string_lossy().into_owned()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_are_plausible() {
        let mb = peak_rss_mb(None);
        assert!(mb > 1.0 && mb < 64.0 * 1024.0, "{mb}");
        assert!(peak_rss_mb(Some(std::process::id())) >= mb);
        let ran = run(Path::new("true"), &[]).unwrap();
        assert!(ran.ok);
        assert!(children_peak_rss_mb() > 0.0);
    }

    #[test]
    fn traced_and_untraced_compiles_agree() {
        let text =
            "\t.text\n\t.type f, @function\nf:\n\tandl $255, %eax\n\tmov %eax, %eax\n\tret\n";
        let on = Tracer::new(true);
        let a = compile(text, "REDZEXT:DCE", 1, &on, 0).unwrap();
        let b = compile(text, "REDZEXT:DCE", 1, &Tracer::new(false), 0).unwrap();
        assert_eq!(a.asm, b.asm);
        assert_eq!(a.passes[0].2, 1);
        assert_eq!(on.total("core.pass.REDZEXT").1, 1);
        assert_eq!(a.text_bytes, text_bytes_of(&a.asm).unwrap());
        assert!(a.text_bytes < text_bytes_of(text).unwrap());
    }
}
