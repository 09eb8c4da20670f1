//! Shared harness for the experiment and benchmark-gate binaries.
//!
//! Each `exp_*` binary regenerates one table or figure of the paper (see
//! DESIGN.md's per-experiment index); this library holds the common
//! plumbing: run a workload on a profile, apply a `--mao=` pass string,
//! and report the paper's improvement convention (positive = faster).

use std::fmt;

use mao::pass::{parse_invocations, run_pipeline, PipelineReport};
use mao::{MaoUnit, Profile};
use mao_corpus::Workload;
use mao_sim::{simulate, SimOptions, SimResult, UarchConfig};

/// A harness failure: which workload/pass string failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

/// Unwrap a harness result in an experiment binary: report the failure on
/// stderr and exit 1 instead of panicking with a backtrace.
pub fn or_exit<T>(result: Result<T, BenchError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// Simulate a workload and return the result.
pub fn run_workload(w: &Workload, config: &UarchConfig) -> Result<SimResult, BenchError> {
    let unit = MaoUnit::parse(&w.asm)
        .map_err(|e| BenchError(format!("workload {} does not parse: {e}", w.name)))?;
    simulate(&unit, &w.entry, &w.args, config, &SimOptions::default())
        .map_err(|e| BenchError(format!("workload {} failed to simulate: {e}", w.name)))
}

/// Apply a `--mao=` pass string to a workload, returning the transformed
/// workload and the pipeline report (for transformation counts).
pub fn apply_passes(
    w: &Workload,
    passes: &str,
    profile: Option<Profile>,
) -> Result<(Workload, PipelineReport), BenchError> {
    let mut unit = MaoUnit::parse(&w.asm)
        .map_err(|e| BenchError(format!("workload {} does not parse: {e}", w.name)))?;
    let invocations = parse_invocations(passes)
        .map_err(|e| BenchError(format!("bad pass string `{passes}`: {e}")))?;
    let report = run_pipeline(&mut unit, &invocations, profile)
        .map_err(|e| BenchError(format!("pipeline `{passes}` failed on {}: {e}", w.name)))?;
    let transformed = Workload {
        name: format!("{}+{passes}", w.name),
        asm: unit.emit(),
        entry: w.entry.clone(),
        args: w.args.clone(),
    };
    Ok((transformed, report))
}

/// The paper's improvement convention: positive percentage = speedup.
pub fn improvement_pct(baseline_cycles: u64, new_cycles: u64) -> f64 {
    if baseline_cycles == 0 {
        return 0.0;
    }
    (baseline_cycles as f64 - new_cycles as f64) / baseline_cycles as f64 * 100.0
}

/// Run `workload` before and after `passes` on `config`; return
/// (improvement %, report).
pub fn pass_effect(
    w: &Workload,
    passes: &str,
    config: &UarchConfig,
) -> Result<(f64, PipelineReport), BenchError> {
    let base = run_workload(w, config)?;
    let (transformed, report) = apply_passes(w, passes, None)?;
    let after = run_workload(&transformed, config)?;
    if base.ret != after.ret {
        return Err(BenchError(format!(
            "pass `{passes}` changed the result of {}: {} -> {}",
            w.name, base.ret, after.ret
        )));
    }
    Ok((improvement_pct(base.pmu.cycles, after.pmu.cycles), report))
}

/// Geometric mean of (1 + pct/100) values, returned as a percentage — the
/// aggregation Fig. 7 uses.
pub fn geomean_pct(pcts: &[f64]) -> f64 {
    if pcts.is_empty() {
        return 0.0;
    }
    let product: f64 = pcts.iter().map(|p| 1.0 + p / 100.0).product();
    (product.powf(1.0 / pcts.len() as f64) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mao_corpus::kernels;

    #[test]
    fn improvement_sign_convention() {
        assert!(improvement_pct(100, 90) > 0.0);
        assert!(improvement_pct(100, 110) < 0.0);
        assert_eq!(improvement_pct(0, 10), 0.0);
        assert!((improvement_pct(200, 190) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn geomean() {
        assert!((geomean_pct(&[10.0, 10.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean_pct(&[]), 0.0);
        let g = geomean_pct(&[21.0, 0.0]);
        assert!(g > 9.0 && g < 11.0);
    }

    #[test]
    fn end_to_end_pass_effect() {
        let w = kernels::hashing(false, 2000);
        let (pct, report) = pass_effect(&w, "SCHED", &UarchConfig::core2()).unwrap();
        assert!(report.total_transformations() > 0);
        assert!(pct > 5.0, "SCHED should speed the bad order up: {pct:.2}%");
    }

    #[test]
    fn apply_passes_preserves_behavior() {
        let w = kernels::mcf_fig1(false, 500);
        let (t, _) = apply_passes(&w, "REDTEST:ADDADD:CONSTFOLD:DCE", None).unwrap();
        let a = run_workload(&w, &UarchConfig::core2()).unwrap();
        let b = run_workload(&t, &UarchConfig::core2()).unwrap();
        assert_eq!(a.ret, b.ret);
    }

    #[test]
    fn failures_are_reported_not_panicked() {
        let broken = Workload {
            name: "broken".into(),
            asm: "frobnicate %eax\n".into(),
            entry: "f".into(),
            args: vec![],
        };
        let e = run_workload(&broken, &UarchConfig::core2()).unwrap_err();
        assert!(e.to_string().contains("does not parse"), "{e}");
        assert!(e.to_string().contains("frobnicate"), "{e}");
        let w = kernels::hashing(false, 100);
        let e = apply_passes(&w, "NOSUCHPASS", None).unwrap_err();
        assert!(e.to_string().contains("NOSUCHPASS"), "{e}");
    }
}
