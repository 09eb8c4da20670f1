//! The calibration sweep: catalog × DAG shapes → a fitted [`CostModel`].
//!
//! For every [`ProbeSpec`] the sweep measures
//! the CYCLE, DISJOINT and (for two-register templates) CHAIN shapes, fits
//! a per-mnemonic cost with [`solver::fit`](crate::solver::fit), measures
//! the machine parameters the alignment passes key off (LSD window,
//! predictor shift, load-to-use latency), and packages everything into a
//! [`CostModel`] ready to be written as a `.mpt` table.
//!
//! Specs whose measurements never stabilize are *skipped with a record*,
//! not fatal: on a noisy backend the sweep degrades to a partial table
//! (missing mnemonics fall back to the model's default cost) instead of
//! dying halfway. Telemetry flows through `mao-obs`: one `probe` span per
//! spec with its fitted numbers, plus the
//! `mao_probe_measurements_total` / `mao_probe_unstable_total` counters.

use mao_obs::Obs;
use mao_x86::cost::{CostModel, MnemonicCost, Provenance, MPT_ISA};

use crate::backend::{measure_stable, MeasureBackend};
use crate::benchmark::{Benchmark, BenchmarkError, StraightLineLoop};
use crate::catalog::{catalog, ProbeSpec};
use crate::detect::{detect_lsd_window_with, detect_predictor_shift_with};
use crate::processor::{InstructionTemplate, Processor};
use crate::sequence::{DagType, InstructionSequence};
use crate::solver::{fit, SpecMeasurement};

/// Knobs for one sweep run.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Name of the produced model (default: `<target>-calibrated`).
    pub name: Option<String>,
    /// RNG seed for operand generation (recorded in provenance).
    pub seed: u64,
    /// CYCLE/CHAIN sequence length.
    pub chain_len: usize,
    /// DISJOINT sequence length (must not exceed the scratch-register
    /// count, or "independent" instructions silently collide).
    pub disjoint_len: usize,
    /// Loop trip count per benchmark.
    pub trip_count: u64,
    /// Runs per measurement before declaring instability.
    pub attempts: usize,
    /// Acceptable min-to-max spread, percent of the median.
    pub tolerance_pct: u64,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            name: None,
            seed: 0,
            chain_len: 16,
            disjoint_len: 8,
            trip_count: 5_000,
            attempts: 9,
            tolerance_pct: 5,
        }
    }
}

/// A sweep-level failure (anything other than per-spec instability).
#[derive(Debug)]
pub enum SweepError {
    /// A spec's measurement failed for a non-noise reason.
    Benchmark {
        /// Which catalog spec.
        spec: String,
        /// The underlying error.
        error: BenchmarkError,
    },
    /// Every catalog spec was skipped — there is no table to write.
    Empty,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Benchmark { spec, error } => {
                write!(f, "sweep failed measuring `{spec}`: {error}")
            }
            SweepError::Empty => write!(f, "sweep produced no stable measurements"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Everything a sweep produced.
#[derive(Debug)]
pub struct SweepReport {
    /// The fitted model (write with
    /// [`CostModel::write_mpt`]).
    pub model: CostModel,
    /// Raw per-spec measurements (for reports and cross-checks).
    pub measurements: Vec<SpecMeasurement>,
    /// Specs skipped as unstable, with the error that killed them.
    pub skipped: Vec<(String, BenchmarkError)>,
}

/// Measure one (template, shape) CPI.
fn shape_cpi(
    backend: &mut dyn MeasureBackend,
    proc: &Processor,
    spec: &ProbeSpec,
    dag: DagType,
    len: usize,
    cfg: &SweepConfig,
) -> Result<f64, BenchmarkError> {
    let template = InstructionTemplate::parse(spec.template)
        .ok_or_else(|| BenchmarkError::Parse(format!("bad template `{}`", spec.template)))?;
    let mut seq = InstructionSequence::new(proc);
    seq.set_instruction_template(template)
        .set_dag_type(dag)
        .set_length(len)
        .set_seed(cfg.seed)
        .generate(proc);
    let body = seq.len() as u64;
    let bench = Benchmark::new(vec![
        StraightLineLoop::new(vec![seq]).with_trip_count(cfg.trip_count)
    ]);
    let counters = measure_stable(
        backend,
        &bench,
        proc,
        &[Processor::CPU_CYCLES],
        cfg.attempts,
        cfg.tolerance_pct,
    )?;
    let cycles = counters
        .get(Processor::CPU_CYCLES)
        .copied()
        .ok_or_else(|| BenchmarkError::UnknownEvent(Processor::CPU_CYCLES.to_string()))?;
    Ok(cycles as f64 / (body * cfg.trip_count) as f64)
}

/// Pointer-chase probe for the L1 load-to-use latency: memory at `[%rdx]`
/// holds its own address, so every load's address depends on the previous
/// load's result — a CYCLE through the cache.
fn load_to_use_cpi(
    backend: &mut dyn MeasureBackend,
    proc: &Processor,
    cfg: &SweepConfig,
) -> Result<f64, BenchmarkError> {
    let chain = "\tmovq (%rdx), %rdx\n".repeat(8);
    let asm = format!(
        "\t.text\n\t.globl\tprobe_main\n\t.type\tprobe_main, @function\nprobe_main:\n\
         \tleaq -128(%rsp), %rdx\n\tmovq %rdx, (%rdx)\n\
         \tmovq ${}, %rcx\n.Lprobe_load:\n{chain}\
         \tsubq $1, %rcx\n\tjne .Lprobe_load\n\txorl %eax, %eax\n\tret\n\
         \t.size\tprobe_main, .-probe_main\n",
        cfg.trip_count
    );
    let counters = backend.run_asm(&asm, proc, &[Processor::CPU_CYCLES])?;
    let cycles = counters
        .get(Processor::CPU_CYCLES)
        .copied()
        .ok_or_else(|| BenchmarkError::UnknownEvent(Processor::CPU_CYCLES.to_string()))?;
    Ok(cycles as f64 / (8 * cfg.trip_count) as f64)
}

/// Run the full calibration sweep on `backend` against `proc`.
pub fn run_sweep(
    backend: &mut dyn MeasureBackend,
    proc: &Processor,
    cfg: &SweepConfig,
    obs: &Obs,
) -> Result<SweepReport, SweepError> {
    let measurements_total = obs.metrics.counter("mao_probe_measurements_total");
    let unstable_total = obs.metrics.counter("mao_probe_unstable_total");
    let mut sweep_span = obs.recorder.span("probe", "sweep");
    sweep_span.arg("backend", backend.name());
    sweep_span.arg("target", &proc.name);

    let mut measurements: Vec<SpecMeasurement> = Vec::new();
    let mut skipped: Vec<(String, BenchmarkError)> = Vec::new();

    for spec in catalog() {
        let mut span = obs.recorder.span("probe", spec.name);
        let cycle_cpi = match shape_cpi(backend, proc, &spec, DagType::Cycle, cfg.chain_len, cfg) {
            Ok(v) => {
                measurements_total.inc();
                v
            }
            Err(err @ BenchmarkError::Unstable { .. }) => {
                unstable_total.inc();
                span.arg("skipped", "unstable");
                skipped.push((spec.name.to_string(), err));
                continue;
            }
            Err(error) => {
                return Err(SweepError::Benchmark {
                    spec: spec.name.to_string(),
                    error,
                })
            }
        };
        let disjoint_cpi = match shape_cpi(
            backend,
            proc,
            &spec,
            DagType::Disjoint,
            cfg.disjoint_len,
            cfg,
        ) {
            Ok(v) => {
                measurements_total.inc();
                v
            }
            Err(err @ BenchmarkError::Unstable { .. }) => {
                unstable_total.inc();
                span.arg("skipped", "unstable");
                skipped.push((spec.name.to_string(), err));
                continue;
            }
            Err(error) => {
                return Err(SweepError::Benchmark {
                    spec: spec.name.to_string(),
                    error,
                })
            }
        };
        // CHAIN is a cross-check only; instability here degrades the check,
        // not the fit.
        let chain_cpi = if spec.two_reg {
            match shape_cpi(backend, proc, &spec, DagType::Chain, cfg.chain_len, cfg) {
                Ok(v) => {
                    measurements_total.inc();
                    Some(v)
                }
                Err(BenchmarkError::Unstable { .. }) => {
                    unstable_total.inc();
                    None
                }
                Err(error) => {
                    return Err(SweepError::Benchmark {
                        spec: spec.name.to_string(),
                        error,
                    })
                }
            }
        } else {
            None
        };
        span.counter("cycle_cpi_x100", (cycle_cpi * 100.0).round() as u64);
        span.counter("disjoint_cpi_x100", (disjoint_cpi * 100.0).round() as u64);
        measurements.push(SpecMeasurement {
            spec,
            cycle_cpi,
            disjoint_cpi,
            chain_cpi,
        });
    }

    if measurements.is_empty() {
        return Err(SweepError::Empty);
    }

    // Wall-clock backends report time, not cycles; normalize so the 1-cycle
    // ALU chain defines the cycle. The simulator already reports cycles and
    // must not be re-scaled (the golden round-trip depends on exactness).
    if !backend.deterministic() {
        if let Some(unit) = measurements
            .iter()
            .find(|m| m.spec.name == "addl")
            .map(|m| m.cycle_cpi)
            .filter(|&u| u > 0.0)
        {
            if backend.name() == "wall" {
                for m in &mut measurements {
                    m.cycle_cpi /= unit;
                    m.disjoint_cpi /= unit;
                    if let Some(c) = m.chain_cpi.as_mut() {
                        *c /= unit;
                    }
                }
            }
        }
    }

    // Machine parameters: measured where a probe exists; structural
    // identity the probes cannot see (port count/shape, decode geometry,
    // store/load port masks) is inherited from the profile under
    // measurement.
    let mut machine = proc.config.cost.machine;
    let min_disjoint = measurements
        .iter()
        .map(|m| m.disjoint_cpi)
        .fold(f64::INFINITY, f64::min);
    if min_disjoint.is_finite() && min_disjoint > 0.0 {
        machine.issue_width = ((1.0 / min_disjoint).round() as u32).clamp(1, 8);
    }
    match load_to_use_cpi(backend, proc, cfg) {
        Ok(cpi) => {
            // The chase's CPI is mov latency + load-to-use; subtract the
            // fitted mov latency (1 when unmeasured).
            let mov_latency = measurements
                .iter()
                .find(|m| m.spec.name == "movl")
                .map(|m| m.cycle_cpi.round() as u32)
                .unwrap_or(1)
                .max(1);
            machine.load_latency = (cpi.round() as u32).saturating_sub(mov_latency).max(1);
        }
        Err(BenchmarkError::Unstable { .. } | BenchmarkError::UnknownEvent(_)) => {
            unstable_total.inc();
        }
        Err(error) => {
            return Err(SweepError::Benchmark {
                spec: "load-to-use".to_string(),
                error,
            })
        }
    }
    // LSD window and predictor shift need simulator-only events; on
    // backends without them the profile's values stand.
    if let Ok(lines) = detect_lsd_window_with(backend, proc) {
        machine.lsd_max_lines = lines as u32;
    }
    if let Ok(shift) = detect_predictor_shift_with(backend, proc) {
        machine.predictor_shift = shift;
    }

    let name = cfg
        .name
        .clone()
        .unwrap_or_else(|| format!("{}-calibrated", proc.name));
    // Unmeasured mnemonics default to a fitted plain-ALU cost.
    let default_cost = measurements
        .iter()
        .find(|m| m.spec.name == "addl")
        .map(|m| fit(m, machine.num_ports))
        .unwrap_or(MnemonicCost {
            latency: 1,
            recip_tp_x100: 34,
            port_mask: 0b111,
        });
    let mut model = CostModel::new(&name, machine, default_cost);
    for m in &measurements {
        model.set(m.spec.mnemonic, fit(m, machine.num_ports));
    }
    model.provenance = Provenance {
        source: format!("probe/{}", backend.name()),
        target: proc.name.clone(),
        generator: "mao-probe sweep v1".to_string(),
        seed: cfg.seed,
        isa: MPT_ISA.to_string(),
    };

    sweep_span.counter("mnemonics", model.len() as u64);
    sweep_span.counter("skipped", skipped.len() as u64);
    Ok(SweepReport {
        model,
        measurements,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{NoisyBackend, SimBackend};

    /// Deterministic backend: shorter loops keep the suite fast without
    /// costing exactness (the CI sweep smoke runs the full default config).
    fn test_cfg() -> SweepConfig {
        SweepConfig {
            trip_count: 500,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn sim_sweep_recovers_core2_latencies_exactly() {
        let proc = Processor::core2();
        let report = run_sweep(&mut SimBackend, &proc, &test_cfg(), &Obs::off()).unwrap();
        assert!(report.skipped.is_empty(), "skipped: {:?}", report.skipped);
        let truth = &proc.config.cost;
        for m in &report.measurements {
            let fitted = report.model.get(m.spec.mnemonic);
            let expected = truth.get(m.spec.mnemonic);
            assert_eq!(
                fitted.latency, expected.latency,
                "latency mismatch for {}",
                m.spec.name
            );
            assert!(
                m.chain_consistent(),
                "chain cross-check for {}",
                m.spec.name
            );
        }
    }

    #[test]
    fn sweep_measures_machine_parameters() {
        let proc = Processor::core2();
        let report = run_sweep(&mut SimBackend, &proc, &test_cfg(), &Obs::off()).unwrap();
        let m = report.model.machine;
        assert_eq!(m.lsd_max_lines, 4);
        assert_eq!(m.predictor_shift, 5);
        assert_eq!(m.load_latency, proc.config.cost.machine.load_latency);
    }

    #[test]
    fn sweep_emits_spans_and_counters() {
        let obs = Obs::aggregating();
        let proc = Processor::core2();
        run_sweep(&mut SimBackend, &proc, &test_cfg(), &obs).unwrap();
        assert!(obs.metrics.counter_value("mao_probe_measurements_total") > 0);
        assert_eq!(obs.metrics.counter_value("mao_probe_unstable_total"), 0);
        let totals = obs.recorder.totals();
        assert!(
            totals.iter().any(|t| t.cat == "probe" && t.name == "sweep"),
            "{totals:?}"
        );
    }

    #[test]
    fn unstable_specs_are_skipped_and_counted_not_fatal() {
        let proc = Processor::core2();
        let mut noisy = NoisyBackend::new(SimBackend, 5, 75);
        let obs = Obs::aggregating();
        let cfg = SweepConfig {
            attempts: 4,
            tolerance_pct: 1,
            trip_count: 200,
            ..SweepConfig::default()
        };
        match run_sweep(&mut noisy, &proc, &cfg, &obs) {
            Ok(report) => assert!(!report.skipped.is_empty()),
            Err(SweepError::Empty) => {}
            Err(other) => panic!("unexpected sweep failure: {other}"),
        }
        assert!(obs.metrics.counter_value("mao_probe_unstable_total") > 0);
    }

    #[test]
    fn provenance_records_backend_target_and_seed() {
        let proc = Processor::opteron();
        let cfg = SweepConfig {
            seed: 99,
            name: Some("my-box".to_string()),
            ..test_cfg()
        };
        let report = run_sweep(&mut SimBackend, &proc, &cfg, &Obs::off()).unwrap();
        assert_eq!(report.model.name, "my-box");
        assert_eq!(report.model.provenance.source, "probe/sim");
        assert_eq!(report.model.provenance.target, "amd-opteron-like");
        assert_eq!(report.model.provenance.seed, 99);
    }
}
