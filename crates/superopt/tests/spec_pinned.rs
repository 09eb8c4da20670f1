//! SUPEROPT's output and search counters on two SPEC-like programs, pinned.
//!
//! The `spec-quality` benchmark runs Figure 7's pass set followed by
//! `SUPEROPT=seed[1]`. Any change to how candidates are generated, priced
//! or verified shows up here as a different emitted text or a moved
//! counter, so a change meant to be a pure speed-up must leave every value
//! below as it is.

use std::sync::Arc;

use mao::pass::{parse_invocations, run_pipeline_observed, PipelineConfig};
use mao::{AnalysisCache, MaoUnit, Obs};
use mao_corpus::spec::{spec2000_benchmark, spec2006_benchmark};

/// Figure 7's passes plus SUPEROPT, as the benchmark's `spec-quality`
/// workload runs them (with an in-memory rewrite cache, cold as there).
const PIPELINE: &str = "REDMOV:REDTEST:LOOP16=max-size[18]:NOPIN=seed[1],density[0.005],\
                        maxlen[1]:SCHED:SUPEROPT=seed[1]";

/// What one optimization emitted and counted.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    text_fnv: u128,
    windows: u64,
    searches: u64,
    candidates: u64,
    diff_rejects: u64,
    oracle_rejects: u64,
    rewrites: u64,
}

fn optimize(asm: &str) -> Pinned {
    mao_superopt::register();
    let mut unit = MaoUnit::parse(asm).expect("program parses");
    let obs = Obs::aggregating();
    run_pipeline_observed(
        &mut unit,
        &parse_invocations(PIPELINE).expect("valid pipeline"),
        None,
        &PipelineConfig { jobs: 1 },
        &Arc::new(AnalysisCache::new()),
        &obs,
    )
    .expect("pipeline runs");
    let counter = |name: &str| {
        obs.metrics
            .counter_value(&format!("mao_superopt_{name}_total"))
    };
    Pinned {
        text_fnv: mao_frame::fnv1a128(unit.emit().as_bytes()),
        windows: counter("windows"),
        searches: counter("searches"),
        candidates: counter("candidates"),
        diff_rejects: counter("diff_rejects"),
        oracle_rejects: counter("oracle_rejects"),
        rewrites: counter("rewrites"),
    }
}

fn program(name: &str) -> String {
    spec2000_benchmark(name)
        .or_else(|| spec2006_benchmark(name))
        .expect("known SPEC-like program")
        .asm
}

#[test]
fn bzip2_output_and_counters_are_pinned() {
    assert_eq!(
        optimize(&program("256.bzip2")),
        Pinned {
            text_fnv: 330820628117889624291347516796452791503,
            windows: 41,
            searches: 41,
            candidates: 12612,
            diff_rejects: 9380,
            oracle_rejects: 0,
            rewrites: 19,
        }
    );
}

#[test]
fn calculix_output_and_counters_are_pinned() {
    assert_eq!(
        optimize(&program("454.calculix")),
        Pinned {
            text_fnv: 18490380894366622976321386781730518475,
            windows: 63,
            searches: 63,
            candidates: 17696,
            diff_rejects: 13584,
            oracle_rejects: 0,
            rewrites: 19,
        }
    );
}
